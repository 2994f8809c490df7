// Command reproduce regenerates the paper-reproduction experiments: the two
// figures, the lemma validations, the theorem sweeps, the Section 6
// extensions, and the design ablations. See DESIGN.md for the index.
//
// Experiments are scheduled onto a deterministic parallel engine: the same
// seed yields byte-identical tables regardless of -workers, because every
// experiment derives its randomness hierarchically from the seed rather than
// from scheduling order. Progress is reported on stderr; tables go to stdout.
//
// Usage:
//
//	reproduce [-run F1,T2,...|all] [-seed N] [-scale 0.25] [-workers N]
//	          [-timeout 30s] [-failfast] [-events out.jsonl]
//	          [-metrics out.jsonl] [-manifest out.json] [-pprof addr]
//	          [-csv dir] [-json] [-md] [-list]
//
// Observability (see DESIGN.md "Observability"): -metrics streams registry
// snapshots as JSON lines alongside the event stream, -manifest writes the
// end-of-run provenance record (seeds, flags, timings, metrics, git rev),
// and -pprof serves expvar + net/http/pprof on the given address for live
// debugging. All three are write-only taps: tables on stdout stay
// byte-identical whether they are on, off, or compiled out entirely
// (-tags liquidnotelemetry).
//
// SIGINT cancels the run gracefully: in-flight experiments drain, completed
// results are still rendered (and flushed to -csv/-json), and the exit code
// is non-zero. The exit code is also non-zero if any paper-shape check fails.
package main

import (
	"context"
	"encoding/json"
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
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"liquid/internal/engine"
	"liquid/internal/experiment"
	"liquid/internal/report"
	"liquid/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

// run parses flags, schedules the selected experiments on the engine, and
// renders results to out in registry order. Progress and event lines go to
// errOut so stdout stays byte-identical for a fixed seed no matter the
// worker count.
func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		runIDs   = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed     = fs.Uint64("seed", 1, "random seed (same seed => identical tables)")
		scale    = fs.Float64("scale", 1, "size scale in (0,1]; smaller is faster")
		workers  = fs.Int("workers", 0, "parallel experiments (0 = one per CPU core)")
		timeout  = fs.Duration("timeout", 0, "per-experiment timeout (0 = none)")
		failfast = fs.Bool("failfast", false, "stop scheduling after the first failure")
		events   = fs.String("events", "", "append engine events as JSON lines to this file")
		metrics  = fs.String("metrics", "", "stream telemetry snapshots as JSON lines to this file")
		manifest = fs.String("manifest", "", "write the end-of-run manifest JSON to this file")
		pprof    = fs.String("pprof", "", "serve expvar and net/http/pprof on this address (e.g. localhost:6060)")
		csvDir   = fs.String("csv", "", "directory to also write per-table CSV files")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of text")
		asMD     = fs.Bool("md", false, "render tables as GitHub markdown")
		quiet    = fs.Bool("quiet", false, "suppress per-experiment progress on stderr")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, d := range experiment.All() {
			fmt.Fprintf(out, "%-4s %s\n     %s\n", d.ID, d.Title, d.Claim)
		}
		return nil
	}

	defs, err := selectDefinitions(*runIDs)
	if err != nil {
		return err
	}

	start := time.Now()
	if *pprof != "" {
		// The debug server is best-effort observability: it serves until the
		// process exits and is never waited on. A bad address is a hard error
		// so a typo does not silently lose the endpoint.
		ln, err := net.Listen("tcp", *pprof)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		fmt.Fprintf(errOut, "pprof: serving expvar and net/http/pprof on http://%s/debug/\n", ln.Addr())
		go func() { _ = http.Serve(ln, nil) }()
	}

	var metricsSink telemetry.Sink = telemetry.Discard
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		defer f.Close()
		metricsSink = telemetry.NewJSONLSink(f)
	}

	var sinks []func(engine.Event)
	if !*quiet {
		sinks = append(sinks, engine.Progress(errOut))
	}
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		jw := report.NewJSONLWriter(f)
		sinks = append(sinks, func(ev engine.Event) { jw.Write(ev) })
	}
	if *metrics != "" {
		// One snapshot line per finished experiment turns the metrics file
		// into a stream alongside the event stream; the pull direction means
		// the flush can observe the computation but never influence it.
		sinks = append(sinks, func(ev engine.Event) {
			if ev.Kind == engine.ExperimentFinished || ev.Kind == engine.SuiteFinished {
				if err := metricsSink.Flush(telemetry.Default.Snapshot()); err != nil {
					fmt.Fprintln(errOut, "metrics flush:", err)
				}
			}
		})
	}
	var sink func(engine.Event)
	if len(sinks) > 0 {
		sink = engine.Tee(sinks...)
	}

	eng := engine.New(engine.Options{
		Workers:  *workers,
		FailFast: *failfast,
		Timeout:  *timeout,
		Events:   sink,
	})
	cfg := experiment.Config{Seed: *seed, Scale: *scale}
	results, runErr := eng.Run(ctx, defs, cfg)

	// Render whatever completed, even on cancellation: partial tables, CSV
	// files and JSON are flushed before the non-zero exit.
	var renderErr error
	if *asJSON {
		renderErr = renderJSON(results, out)
	} else {
		renderErr = renderText(results, out, *asMD, *csvDir)
	}
	if renderErr != nil {
		return renderErr
	}

	// Cache telemetry is scheduling-dependent, so it goes to errOut only;
	// stdout must stay byte-identical across worker counts. Reading the
	// registry happens here, at the entry point, after all tables rendered —
	// internal packages only ever write it (telemflow analyzer).
	snap := telemetry.Default.Snapshot()
	fmt.Fprintf(errOut, "kernel caches: resolution %d hit / %d miss, direct %d hit / %d miss\n",
		snap.Counter("election/resolution_cache_hits"), snap.Counter("election/resolution_cache_misses"),
		snap.Counter("election/direct_cache_hits"), snap.Counter("election/direct_cache_misses"))

	if *manifest != "" {
		flagVals := make(map[string]string)
		fs.VisitAll(func(f *flag.Flag) { flagVals[f.Name] = f.Value.String() })
		man := telemetry.BuildManifest(telemetry.Default, *seed, flagVals)
		man.WallSeconds = time.Since(start).Seconds()
		if err := man.WriteFile(*manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Fprintf(errOut, "manifest: %s (sha256 %s)\n", *manifest, man.Hash())
	}

	if runErr != nil {
		return fmt.Errorf("run cancelled: %w", runErr)
	}
	failures := 0
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
		if res.Outcome != nil {
			failures += len(res.Outcome.Failed())
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d paper-shape checks failed", failures)
	}
	return nil
}

// selectDefinitions resolves -run into registry definitions, rejecting
// unknown ids before anything is scheduled.
func selectDefinitions(runIDs string) ([]experiment.Definition, error) {
	if runIDs == "all" {
		return experiment.All(), nil
	}
	var defs []experiment.Definition
	for _, id := range strings.Split(runIDs, ",") {
		def, err := experiment.Lookup(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		defs = append(defs, def)
	}
	return defs, nil
}

// renderText writes the classic table/check report. The output contains no
// wall-clock data, so a fixed seed renders byte-identically whether the run
// used one worker or many.
func renderText(results []engine.Result, out io.Writer, asMD bool, csvDir string) error {
	for _, res := range results {
		if res.Skipped {
			continue
		}
		if res.Err != nil {
			if errors.Is(res.Err, context.Canceled) {
				continue // cancelled mid-run; nothing to render
			}
			fmt.Fprintf(out, "=== %s: error: %v\n\n", res.Def.ID, res.Err)
			continue
		}
		o := res.Outcome
		fmt.Fprintf(out, "=== %s: %s\n", o.ID, o.Title)
		fmt.Fprintf(out, "    claim: %s\n\n", o.Claim)
		for ti, tab := range o.Tables {
			if asMD {
				if err := tab.RenderMarkdown(out); err != nil {
					return err
				}
			} else if err := tab.Render(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			if csvDir != "" {
				name := fmt.Sprintf("%s_%d.csv", o.ID, ti)
				if err := writeCSV(filepath.Join(csvDir, name), tab); err != nil {
					return err
				}
			}
		}
		for _, c := range o.Checks {
			mark := "PASS"
			if !c.Passed {
				mark = "FAIL"
			}
			detail := ""
			if c.Detail != "" {
				detail = " — " + c.Detail
			}
			fmt.Fprintf(out, "  [%s] %s%s\n", mark, c.Name, detail)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func writeCSV(path string, tab *report.Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonOutcome is the machine-readable experiment result. It deliberately
// carries no wall-clock timing so that output for a fixed seed is
// byte-identical across runs and worker counts; timing lives in the engine
// event stream (-events).
type jsonOutcome struct {
	ID           string             `json:"id"`
	Title        string             `json:"title"`
	Claim        string             `json:"claim"`
	Replications int                `json:"replications"`
	Error        string             `json:"error,omitempty"`
	Tables       []jsonTable        `json:"tables,omitempty"`
	Checks       []experiment.Check `json:"checks,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// renderJSON streams one JSON document with all completed outcomes. Skipped
// experiments are omitted; errored ones carry an error string so a partial
// (cancelled) run is still a well-formed document.
func renderJSON(results []engine.Result, out io.Writer) error {
	outs := make([]jsonOutcome, 0, len(results))
	for _, res := range results {
		if res.Skipped {
			continue
		}
		if res.Err != nil {
			outs = append(outs, jsonOutcome{ID: res.Def.ID, Title: res.Def.Title, Error: res.Err.Error()})
			continue
		}
		o := res.Outcome
		jo := jsonOutcome{
			ID:           o.ID,
			Title:        o.Title,
			Claim:        o.Claim,
			Replications: o.Replications,
			Checks:       o.Checks,
		}
		for _, tab := range o.Tables {
			jo.Tables = append(jo.Tables, jsonTable{Title: tab.Title, Columns: tab.Columns, Rows: tab.Rows})
		}
		outs = append(outs, jo)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(outs)
}
