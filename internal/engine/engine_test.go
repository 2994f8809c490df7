package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"liquid/internal/experiment"
)

// fastSubset picks registry experiments that are quick at Scale 0.25 but
// still exercise the parallel election engine underneath.
func fastSubset(t *testing.T, ids ...string) []experiment.Definition {
	t.Helper()
	defs := make([]experiment.Definition, 0, len(ids))
	for _, id := range ids {
		def, err := experiment.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	return defs
}

// outcomes extracts the outcome from each result. Outcomes carry no
// wall-clock fields (timing is engine telemetry only), so they can be
// compared structurally as-is.
func outcomes(results []Result) []*experiment.Outcome {
	outs := make([]*experiment.Outcome, len(results))
	for i, r := range results {
		outs[i] = r.Outcome
	}
	return outs
}

// TestRunDeterministicAcrossWorkers is the engine's core contract: the same
// seed must give deep-equal outcomes whether experiments run sequentially or
// on a wide pool, because no randomness depends on scheduling order.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	defs := fastSubset(t, "F2", "A5", "L4", "V1", "X6", "A3")
	cfg := experiment.Config{Seed: 99, Scale: 0.25}

	var baseline []*experiment.Outcome
	for _, workers := range []int{1, 4, 16} {
		results, err := New(Options{Workers: workers}).Run(context.Background(), defs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range results {
			if r.Err != nil || r.Skipped {
				t.Fatalf("workers=%d: %s err=%v skipped=%v", workers, r.Def.ID, r.Err, r.Skipped)
			}
		}
		outs := outcomes(results)
		if baseline == nil {
			baseline = outs
			continue
		}
		if !reflect.DeepEqual(baseline, outs) {
			t.Fatalf("workers=%d produced different outcomes than workers=1", workers)
		}
	}
}

// TestRunResultsInInputOrder checks that results come back indexed by input
// position even when completion order differs.
func TestRunResultsInInputOrder(t *testing.T) {
	defs := []experiment.Definition{
		stubDef("SLOW", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			time.Sleep(30 * time.Millisecond)
			return &experiment.Outcome{Tables: nil}, nil
		}),
		stubDef("FAST", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			return &experiment.Outcome{Tables: nil}, nil
		}),
	}
	results, err := New(Options{Workers: 2}).Run(context.Background(), defs, experiment.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Def.ID != "SLOW" || results[1].Def.ID != "FAST" {
		t.Fatalf("results out of order: %s, %s", results[0].Def.ID, results[1].Def.ID)
	}
}

func stubDef(id string, run func(context.Context, experiment.Config) (*experiment.Outcome, error)) experiment.Definition {
	return experiment.Definition{ID: id, Title: id, Run: run}
}

// TestRunCancellationPromptAndLeakFree cancels a suite mid-run: Run must
// return ctx's error well under 500ms and leave no worker goroutines behind.
func TestRunCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()

	started := make(chan struct{}, 16)
	var defs []experiment.Definition
	for i := 0; i < 12; i++ {
		defs = append(defs, stubDef(fmt.Sprintf("HANG%d", i),
			func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				// A cooperative replication loop: spin until cancelled.
				for {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					time.Sleep(time.Millisecond)
				}
			}))
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := New(Options{Workers: 4}).Run(ctx, defs, experiment.Config{Seed: 1})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Run did not return within 500ms of cancellation")
	}

	// Workers must all be gone; allow the runtime a moment to reap.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunCancellationRealExperiment drives cancellation through the real
// registry: the context is plumbed down into election sampling loops.
func TestRunCancellationRealExperiment(t *testing.T) {
	defs := fastSubset(t, "T2") // replication-heavy: exercises election ctx plumbing
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := New(Options{Workers: 2}).Run(ctx, defs, experiment.Config{Seed: 1, Scale: 0.25})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !results[0].Skipped {
		t.Fatal("pre-cancelled run should skip scheduling")
	}
}

// TestPreCancelledRunStartsNothing runs a suite whose context is cancelled
// before Run starts: no experiment may start, every result stays Skipped,
// and Run returns ctx's error. A hand-out that raced the cancellation
// would start an experiment in a small share of runs, so each width
// repeats the run.
func TestPreCancelledRunStartsNothing(t *testing.T) {
	var ran atomic.Int32
	var defs []experiment.Definition
	for i := 0; i < 8; i++ {
		defs = append(defs, stubDef(fmt.Sprintf("S%d", i),
			func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
				ran.Add(1)
				return &experiment.Outcome{}, nil
			}))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 4} {
		for iter := 0; iter < 2000; iter++ {
			results, err := New(Options{Workers: workers}).Run(ctx, defs, experiment.Config{Seed: 1})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers %d, run %d: err = %v, want context.Canceled", workers, iter, err)
			}
			for i, res := range results {
				if !res.Skipped {
					t.Fatalf("workers %d, run %d: result %d not skipped", workers, iter, i)
				}
			}
			if got := ran.Load(); got != 0 {
				t.Fatalf("workers %d, run %d: %d experiments started after cancellation", workers, iter, got)
			}
		}
	}
}

// TestFailFastStopsScheduling runs a failing experiment first with one
// worker: everything after the failure must be skipped, and without
// FailFast everything runs.
func TestFailFastStopsScheduling(t *testing.T) {
	var ran atomic.Int32
	mk := func(id string, fail bool) experiment.Definition {
		return stubDef(id, func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			ran.Add(1)
			out := &experiment.Outcome{}
			if fail {
				out.Checks = []experiment.Check{{Name: "shape", Passed: false, Detail: "wrong"}}
			}
			return out, nil
		})
	}
	defs := []experiment.Definition{mk("OK1", false), mk("BAD", true), mk("OK2", false), mk("OK3", false)}

	results, err := New(Options{Workers: 1, FailFast: true}).Run(context.Background(), defs, experiment.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d experiments, want 2 (OK1 and BAD)", got)
	}
	if !results[1].Failed() {
		t.Fatal("BAD should report failure")
	}
	if !results[2].Skipped || !results[3].Skipped {
		t.Fatalf("later experiments should be skipped: %+v %+v", results[2], results[3])
	}

	ran.Store(0)
	if _, err := New(Options{Workers: 1}).Run(context.Background(), defs, experiment.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("without FailFast ran %d, want 4", got)
	}
}

// TestFailFastSkipsLateHandoff repeats the fail-fast scenario with a slow
// first experiment. The worker takes the failing experiment next, and the
// index after it is still handed out once FailFast has tripped; that index
// must stay skipped. A hand-out that raced the failure would run it in
// only some runs, so the scenario repeats.
func TestFailFastSkipsLateHandoff(t *testing.T) {
	var ran atomic.Int32
	mk := func(id string, fail bool, wait time.Duration) experiment.Definition {
		return stubDef(id, func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			ran.Add(1)
			time.Sleep(wait)
			out := &experiment.Outcome{}
			if fail {
				out.Checks = []experiment.Check{{Name: "shape", Passed: false, Detail: "wrong"}}
			}
			return out, nil
		})
	}
	defs := []experiment.Definition{mk("SLOW", false, 100*time.Microsecond), mk("BAD", true, 0), mk("OK", false, 0)}
	for iter := 0; iter < 100; iter++ {
		ran.Store(0)
		results, err := New(Options{Workers: 1, FailFast: true}).Run(context.Background(), defs, experiment.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 2 || !results[2].Skipped {
			t.Fatalf("run %d: ran %d experiments (want 2), OK skipped = %v", iter, got, results[2].Skipped)
		}
	}
}

// TestPerExperimentTimeout bounds a hanging experiment.
func TestPerExperimentTimeout(t *testing.T) {
	defs := []experiment.Definition{stubDef("HANG",
		func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})}
	results, err := New(Options{Workers: 1, Timeout: 20 * time.Millisecond}).
		Run(context.Background(), defs, experiment.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", results[0].Err)
	}
}

// TestEventStream checks the emitted event sequence for one pass: started
// and finished per experiment, check_failed for failing checks, one
// suite_finished, and strictly increasing Seq. An experiment that returns
// an error runs once and reports it.
func TestEventStream(t *testing.T) {
	var events []Event
	var errRuns atomic.Int32
	boom := errors.New("boom")
	opts := Options{Workers: 1, Events: func(ev Event) { events = append(events, ev) }}
	defs := []experiment.Definition{
		stubDef("GOOD", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			return &experiment.Outcome{Replications: 7,
				Checks: []experiment.Check{{Name: "fine", Passed: true}}}, nil
		}),
		stubDef("BADCHECK", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			return &experiment.Outcome{Checks: []experiment.Check{
				{Name: "broken", Passed: false, Detail: "off by one"}}}, nil
		}),
		stubDef("ERR", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			errRuns.Add(1)
			return nil, boom
		}),
	}
	results, err := New(opts).Run(context.Background(), defs, experiment.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// An error is final: the experiment ran once and its result carries it.
	if errRuns.Load() != 1 || !errors.Is(results[2].Err, boom) {
		t.Fatalf("ERR ran %d times with err %v, want once with %v", errRuns.Load(), results[2].Err, boom)
	}

	var kinds []string
	for i, ev := range events {
		kinds = append(kinds, string(ev.Kind))
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	want := []string{
		"experiment_started", "experiment_finished",
		"experiment_started", "experiment_finished", "check_failed",
		"experiment_started", "experiment_finished",
		"suite_finished",
	}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	if events[1].Replications != 7 || events[1].Checks != 1 {
		t.Fatalf("finished event = %+v", events[1])
	}
	if events[4].Check != "broken" || events[4].Detail != "off by one" {
		t.Fatalf("check_failed event = %+v", events[4])
	}
	if events[6].Err == "" {
		t.Fatalf("error run should carry Err: %+v", events[6])
	}
	last := events[len(events)-1]
	if last.Experiments != 3 || last.Failed != 2 || last.Workers != 1 {
		t.Fatalf("suite_finished = %+v", last)
	}
}

// TestPanicRecovery is the hardening contract: a deliberately panicking
// experiment surfaces as a typed *PanicError and an experiment_panicked
// event, while the rest of the suite completes and flushes normally.
func TestPanicRecovery(t *testing.T) {
	var events []Event
	opts := Options{Workers: 1, Events: func(ev Event) { events = append(events, ev) }}
	defs := []experiment.Definition{
		stubDef("OK1", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			return &experiment.Outcome{Checks: []experiment.Check{{Name: "fine", Passed: true}}}, nil
		}),
		stubDef("BOOM", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			panic("deliberate test panic")
		}),
		stubDef("OK2", func(ctx context.Context, cfg experiment.Config) (*experiment.Outcome, error) {
			return &experiment.Outcome{Checks: []experiment.Check{{Name: "fine", Passed: true}}}, nil
		}),
	}
	results, err := New(opts).Run(context.Background(), defs, experiment.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].Failed() {
		t.Fatal("panicking experiment must count as failed")
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", results[1].Err, results[1].Err)
	}
	if pe.ID != "BOOM" || pe.Value != "deliberate test panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	for _, i := range []int{0, 2} {
		if results[i].Failed() || results[i].Skipped {
			t.Fatalf("experiment %s should have completed cleanly: %+v", results[i].Def.ID, results[i])
		}
	}
	var panicked, finishedAfter, suite bool
	for _, ev := range events {
		switch {
		case ev.Kind == ExperimentPanicked && ev.ID == "BOOM":
			panicked = true
			if ev.Err == "" || ev.Detail == "" {
				t.Fatalf("panicked event missing err/stack: %+v", ev)
			}
		case ev.Kind == ExperimentFinished && ev.ID == "OK2":
			finishedAfter = true
		case ev.Kind == SuiteFinished:
			suite = true
			if ev.Failed != 1 {
				t.Fatalf("suite_finished Failed = %d, want 1", ev.Failed)
			}
		}
	}
	if !panicked || !finishedAfter || !suite {
		t.Fatalf("missing events: panicked=%v finishedAfter=%v suite=%v", panicked, finishedAfter, suite)
	}
}

// TestProgressWriter smoke-tests the human-readable consumer: one line per
// event kind, and the error, failed-check and cancelled variants of the
// finish lines.
func TestProgressWriter(t *testing.T) {
	var sb strings.Builder
	p := Progress(&sb)
	p(Event{Kind: ExperimentStarted, ID: "T2", Title: "Theorem 2"})
	p(Event{Kind: ExperimentPanicked, ID: "T2", Err: "experiment T2 panicked: boom"})
	p(Event{Kind: ExperimentFinished, ID: "T2", Checks: 4, ElapsedSeconds: 0.5, Replications: 32})
	p(Event{Kind: ExperimentFinished, ID: "X1", Err: "permanent"})
	p(Event{Kind: ExperimentFinished, ID: "X2", Checks: 3, Failed: 1, ElapsedSeconds: 0.5})
	p(Event{Kind: CheckFailed, ID: "T2", Check: "gain", Detail: "0.001"})
	p(Event{Kind: SuiteFinished, Experiments: 1, Workers: 2, ElapsedSeconds: 0.5})
	p(Event{Kind: SuiteFinished, Err: "context canceled", ElapsedSeconds: 0.5})
	out := sb.String()
	for _, frag := range []string{"start T2", "panic T2", "ok    T2", "error X1   permanent", "FAIL  X2   1/3 checks failed",
		"check failed: gain", "suite done", "suite cancelled after 0.50s: context canceled"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("progress output missing %q:\n%s", frag, out)
		}
	}
}
