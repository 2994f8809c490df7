// Command liquidd serves election evaluation over HTTP: POST /v1/evaluate
// runs a mechanism (optionally under a fault model) across an alpha sweep,
// POST /v1/whatif scores one explicit delegation profile, GET /healthz and
// GET /statsz expose liveness and the request accounting. See DESIGN.md
// "Serving layer" for the wire format and the serving invariants.
//
// The daemon is built for partial failure: requests carry deadlines that
// propagate into engine cancellation, a bounded admission queue sheds load
// with 429 + Retry-After before it builds up, worker panics surface as
// typed 500s without taking a worker down, and when a deadline cannot
// afford the exact engine the response degrades to certified normal
// intervals (flagged, with their half-widths) instead of missing the
// deadline.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// requests run to completion (their deadlines still apply) within
// -drain-grace, then the telemetry manifest is flushed. A drained exit is
// code 0; a failed startup is code 1.
//
// Usage:
//
//	liquidd [-addr host:port] [-shards N] [-queue-depth N] [-max-cost N]
//	        [-cost-rate N] [-deadline d] [-max-deadline d] [-max-body N]
//	        [-replications N] [-workers N] [-drain-grace d]
//	        [-manifest out.json] [-pprof addr]
package main

import (
	"context"
	"errors"
	_ "expvar" // registers /debug/vars on the -pprof server
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the -pprof server
	"os"
	"os/signal"
	"syscall"
	"time"

	"liquid/internal/server"
	"liquid/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "liquidd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, errOut io.Writer) error {
	fs := flag.NewFlagSet("liquidd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr       = fs.String("addr", "localhost:8090", "listen address (use :0 for an ephemeral port)")
		shards     = fs.Int("shards", 0, "workers, which all read one queue (0 = one per CPU core)")
		queueDepth = fs.Int("queue-depth", 0, "queued requests per worker; the queue holds shards*queue-depth (0 = default 64)")
		maxCost    = fs.Int64("max-cost", 0, "admission budget in DP units (0 = default 1<<28)")
		costRate   = fs.Float64("cost-rate", 0, "degradation calibration in DP units/sec (0 = default 50e6)")
		deadlineD  = fs.Duration("deadline", 0, "default per-request deadline (0 = 5s)")
		maxDead    = fs.Duration("max-deadline", 0, "cap on requested deadlines (0 = 60s)")
		maxBody    = fs.Int64("max-body", 0, "request body cap in bytes (0 = 1 MiB)")
		reps       = fs.Int("replications", 0, "default sweep replications (0 = 64)")
		workers    = fs.Int("workers", 0, "per-request evaluation workers (0 = 1; parallelism is across requests)")
		drainGrace = fs.Duration("drain-grace", 10*time.Second, "how long a shutdown waits for in-flight requests")
		manifest   = fs.String("manifest", "", "write the telemetry manifest JSON here on shutdown")
		pprof      = fs.String("pprof", "", "serve expvar and net/http/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()

	if *pprof != "" {
		ln, err := net.Listen("tcp", *pprof)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		fmt.Fprintf(errOut, "pprof: serving on http://%s/debug/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	srv := server.New(server.Config{
		MaxBody:         *maxBody,
		Shards:          *shards,
		QueueDepth:      *queueDepth,
		MaxCost:         *maxCost,
		CostRate:        *costRate,
		DefaultDeadline: *deadlineD,
		MaxDeadline:     *maxDead,
		Replications:    *reps,
		Workers:         *workers,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	// The bound address goes out before serving starts so harnesses using
	// :0 can discover the port.
	fmt.Fprintf(errOut, "liquidd: serving on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight handlers finish (their own
	// deadlines still apply), then stop the workers.
	fmt.Fprintln(errOut, "liquidd: draining")
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		// Grace expired with requests still in flight: close hard. The
		// manifest below still records what the daemon finished.
		fmt.Fprintln(errOut, "liquidd: drain grace expired, closing:", err)
		_ = httpSrv.Close()
	}
	srv.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}

	st := srv.Stats()
	fmt.Fprintf(errOut, "liquidd: drained: received %d = malformed %d + shed %d + completed %d + failed %d + expired %d\n",
		st.Received, st.Malformed, st.Shed, st.Completed, st.Failed, st.Expired)

	if *manifest != "" {
		flagVals := make(map[string]string)
		fs.VisitAll(func(f *flag.Flag) { flagVals[f.Name] = f.Value.String() })
		man := telemetry.BuildManifest(telemetry.Default, 0, flagVals)
		man.WallSeconds = time.Since(start).Seconds()
		if err := man.WriteFile(*manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Fprintf(errOut, "manifest: %s (sha256 %s)\n", *manifest, man.Hash())
	}
	return nil
}
