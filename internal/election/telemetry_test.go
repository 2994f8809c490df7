package election

import (
	"context"
	"io"
	"sync"
	"testing"

	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/telemetry"
)

// TestTelemetrySinksWriteOnly is the property test behind the telemflow
// invariant: an evaluation running while sinks aggressively drain the
// Default registry produces bit-identical results to one running with
// telemetry.Discard (i.e. nobody flushing). Since every replication's
// randomness comes from streams derived off the seed, equality here also
// proves telemetry consumed zero extra RNG draws — one stolen draw would
// shift every subsequent replication and change PM.
func TestTelemetrySinksWriteOnly(t *testing.T) {
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	for _, seed := range []uint64{3, 17, 91} {
		in := mustInstance(t, graph.NewComplete(151), randComps(151, 0.3, 0.49, seed))
		opts := Options{Replications: 24, Seed: seed, Workers: 4}

		quiet, err := EvaluateMechanism(context.Background(), in, mech, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Re-run with a flusher goroutine hammering snapshots into a JSONL
		// sink for the whole evaluation. The pull-based sink design means
		// this can observe the run but must not perturb it.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := telemetry.MultiSink(telemetry.Discard, telemetry.NewJSONLSink(io.Discard))
			for {
				select {
				case <-stop:
					return
				default:
					if err := sink.Flush(telemetry.Default.Snapshot()); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		flushed, err := EvaluateMechanism(context.Background(), in, mech, opts)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}

		if *quiet != *flushed {
			t.Fatalf("seed %d: concurrent sink flushing changed results:\nquiet:   %+v\nflushed: %+v",
				seed, quiet, flushed)
		}
	}
}

// TestTelemetryZeroExtraDraws pins the RNG-stream side directly: deriving
// the same child stream before and after heavy telemetry activity yields
// the same values, because the telemetry layer never touches an rng.Stream
// (it has no API that accepts one).
func TestTelemetryZeroExtraDraws(t *testing.T) {
	root := rng.New(42)
	before := root.DeriveString("probe").Uint64()

	reg := telemetry.NewRegistry()
	for i := 0; i < 1000; i++ {
		reg.Counter("noise").Inc()
		reg.Gauge("g").Set(float64(i))
		reg.Histogram("h", 1, 10).Observe(float64(i))
		sp := reg.StartSpan("s")
		sp.End()
	}
	_ = reg.Snapshot()

	after := rng.New(42).DeriveString("probe").Uint64()
	if before != after {
		t.Fatalf("telemetry activity perturbed derived stream: %d != %d", before, after)
	}
}

// TestScoreCacheTelemetryRace is the -race workout for the cache + metrics
// combination: many goroutines scoring through one shared ScoreCache (each
// with its own workspace, per the ownership rules) while a flusher
// snapshots the Default registry — the exact shape EvaluateMechanism's
// replication pool produces under cmd/reproduce's -metrics flag.
func TestScoreCacheTelemetryRace(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(101), randComps(101, 0.3, 0.49, 7))
	d, err := (mechanism.ApprovalThreshold{Alpha: 0.05}).Apply(in, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewScoreCache()
	const workers = 8
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = telemetry.Default.Snapshot()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := prob.NewWorkspace()
			for i := 0; i < 50; i++ {
				got, err := ResolutionProbabilityExactCached(in, res, ws, cache)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("cached score %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
}
