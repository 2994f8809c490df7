// Package engine schedules experiments onto a bounded worker pool with
// deterministic, order-independent results.
//
// Every experiment derives all of its randomness from Config.Seed via
// rng.Derive, never from scheduling order, so running the registry with one
// worker or sixteen produces byte-identical outcomes; the engine only decides
// *when* each experiment runs. Cancellation is cooperative: cancelling the
// context passed to Run stops the scheduler from handing out new experiments
// and aborts in-flight replication loops through the context plumbed into
// the election and localsim layers.
package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"liquid/internal/experiment"
	"liquid/internal/prob"
	"liquid/internal/telemetry"
)

// EventKind labels a scheduler event.
type EventKind string

// The event kinds emitted by a Runner, in the order they can occur for one
// experiment. SuiteFinished is emitted exactly once, after all workers drain.
const (
	ExperimentStarted EventKind = "experiment_started"
	// ExperimentPanicked reports a panic recovered from an experiment; the
	// experiment still finishes (with a *PanicError), the suite continues.
	ExperimentPanicked EventKind = "experiment_panicked"
	ExperimentFinished EventKind = "experiment_finished"
	CheckFailed        EventKind = "check_failed"
	SuiteFinished      EventKind = "suite_finished"
)

// PanicError is a panic recovered from an experiment run, preserving the
// panic value and the goroutine stack. It surfaces as the experiment's
// result error so one broken experiment cannot take down the whole suite.
type PanicError struct {
	// ID is the experiment that panicked.
	ID string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment %s panicked: %v", e.ID, e.Value)
}

// Event is one typed scheduler notification. Seq orders events as emitted;
// with several workers the interleaving across experiments is
// non-deterministic even though the results are not.
type Event struct {
	Kind EventKind `json:"kind"`
	Seq  int       `json:"seq"`

	// ID/Title identify the experiment (empty on SuiteFinished).
	ID    string `json:"id,omitempty"`
	Title string `json:"title,omitempty"`

	// Check/Detail describe a failed check (CheckFailed), or the truncated
	// stack of a recovered panic (ExperimentPanicked).
	Check  string `json:"check,omitempty"`
	Detail string `json:"detail,omitempty"`

	// Err is the run error, if any (ExperimentPanicked, ExperimentFinished,
	// SuiteFinished).
	Err string `json:"err,omitempty"`

	// ElapsedSeconds, Replications, Checks and Failed summarize a finished
	// experiment; on SuiteFinished, ElapsedSeconds covers the whole suite and
	// Failed counts failed experiments.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	Replications   int     `json:"replications,omitempty"`
	Checks         int     `json:"checks,omitempty"`
	Failed         int     `json:"failed,omitempty"`

	// Experiments and Workers describe the suite (SuiteFinished only).
	Experiments int `json:"experiments,omitempty"`
	Workers     int `json:"workers,omitempty"`
}

// Options configures a Runner.
type Options struct {
	// Workers bounds how many experiments run concurrently. 0 means one per
	// CPU core (the worker count never changes results, only wall clock).
	Workers int
	// FailFast stops scheduling new experiments after the first one that
	// errors or fails a check; experiments already in flight finish.
	FailFast bool
	// Timeout bounds each experiment's run (0 = none). A timed-out
	// experiment reports context.DeadlineExceeded as its error.
	Timeout time.Duration
	// Events, when non-nil, receives every scheduler event. Calls are
	// serialized; the callback must not block for long.
	Events func(Event)
}

// Result pairs a definition with its outcome. Exactly one of Outcome/Err is
// meaningful unless the experiment was never scheduled, in which case
// Skipped is true and both are zero.
type Result struct {
	Def     experiment.Definition
	Outcome *experiment.Outcome
	Err     error
	Skipped bool
}

// Failed reports whether the result should count as a failure: a run error
// or at least one failed check. Skipped results are not failures.
func (r Result) Failed() bool {
	if r.Skipped {
		return false
	}
	return r.Err != nil || (r.Outcome != nil && len(r.Outcome.Failed()) > 0)
}

// Runner executes experiment definitions on a worker pool.
type Runner struct {
	opts Options

	mu  sync.Mutex
	seq int
}

// New creates a Runner. A zero Options value gives a full-width,
// run-everything, silent runner.
func New(opts Options) *Runner {
	return &Runner{opts: opts}
}

func (r *Runner) emit(ev Event) {
	if r.opts.Events == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	events := r.opts.Events
	events(ev)
	r.mu.Unlock()
}

// Run executes defs on the pool and returns one Result per definition, in
// input order regardless of completion order. The returned error is ctx's
// error when the run was cancelled or nil otherwise; per-experiment failures
// are reported in the results, not the error.
func (r *Runner) Run(ctx context.Context, defs []experiment.Definition, cfg experiment.Config) ([]Result, error) {
	start := time.Now()
	results := make([]Result, len(defs))
	for i, def := range defs {
		results[i] = Result{Def: def, Skipped: true}
	}

	workers := r.opts.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(defs) {
		workers = len(defs)
	}
	// Nested-parallelism budget: each pooled experiment runs election
	// evaluations that parallelise internally (replication workers plus the
	// fork-join D&C kernels), so an unconstrained inner width would
	// oversubscribe cores by a factor of the pool width. Split the cores
	// across the pool unless the caller pinned the inner width explicitly.
	// Purely a scheduling decision: evaluation results are invariant under
	// worker counts, so the budget can never change an outcome.
	if cfg.Workers == 0 && workers > 0 {
		cfg.Workers = max(1, defaultWorkers()/workers)
	}

	// ParallelFor checks ctx before it hands out each index, so a cancelled
	// run starts no further experiment and a pre-cancelled one starts none.
	// Once FailFast trips, an index handed out later stays Skipped. The
	// loop's error is ctx's, which the suite reports below.
	var stop atomic.Bool
	_ = prob.ParallelFor(ctx, len(defs), workers, func(_, i int) {
		if stop.Load() {
			return
		}
		results[i] = r.runOne(ctx, defs[i], cfg)
		if r.opts.FailFast && results[i].Failed() {
			stop.Store(true)
		}
	})

	failed := 0
	for _, res := range results {
		if res.Failed() {
			failed++
		}
	}
	suite := Event{
		Kind:           SuiteFinished,
		ElapsedSeconds: time.Since(start).Seconds(),
		Experiments:    len(defs),
		Workers:        workers,
		Failed:         failed,
	}
	if err := ctx.Err(); err != nil {
		suite.Err = err.Error()
		r.emit(suite)
		return results, err
	}
	r.emit(suite)
	return results, nil
}

// runOne executes a single definition once, emitting its lifecycle events.
// A panic is recovered into a *PanicError; any error is final, since a
// re-run with the same seed would repeat the same computation.
func (r *Runner) runOne(ctx context.Context, def experiment.Definition, cfg experiment.Config) Result {
	r.emit(Event{Kind: ExperimentStarted, ID: def.ID, Title: def.Title})
	// Timing lives here, not in the experiment layer: outcomes carry only
	// reproducible data, and elapsed time is engine telemetry.
	start := time.Now()
	// One telemetry span per scheduled task, installed in the context so
	// downstream layers (election, fault evaluation) can hang child spans
	// off it.
	reg := telemetry.Default
	reg.Counter("engine/experiments_started").Inc()
	sp := reg.StartSpan("experiment/" + def.ID)
	defer sp.End()
	runCtx := telemetry.ContextWithSpan(ctx, sp)
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, r.opts.Timeout)
		defer cancel()
	}
	out, err := r.runRecovered(runCtx, def, cfg)
	res := Result{Def: def, Outcome: out, Err: err}
	reg.Histogram("engine/experiment_seconds", 0.01, 0.1, 1, 10, 60, 600).
		Observe(time.Since(start).Seconds())
	if res.Failed() {
		reg.Counter("engine/experiments_failed").Inc()
	}
	ev := Event{Kind: ExperimentFinished, ID: def.ID, Title: def.Title}
	if err != nil {
		ev.Err = err.Error()
		r.emit(ev)
		return res
	}
	ev.ElapsedSeconds = time.Since(start).Seconds()
	ev.Replications = out.Replications
	ev.Checks = len(out.Checks)
	for _, c := range out.Checks {
		if !c.Passed {
			ev.Failed++
		}
	}
	r.emit(ev)
	for _, c := range out.Checks {
		if !c.Passed {
			r.emit(Event{Kind: CheckFailed, ID: def.ID, Check: c.Name, Detail: c.Detail})
		}
	}
	return res
}

// panicStackLimit bounds how much of a recovered stack lands in the event
// stream (the full stack stays on the PanicError).
const panicStackLimit = 2048

// runRecovered executes a definition, converting panics into a *PanicError
// and an ExperimentPanicked event instead of crashing the worker pool.
func (r *Runner) runRecovered(ctx context.Context, def experiment.Definition, cfg experiment.Config) (out *experiment.Outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			telemetry.Default.Counter("engine/experiment_panics").Inc()
			pe := &PanicError{ID: def.ID, Value: v, Stack: debug.Stack()}
			out, err = nil, pe
			stack := string(pe.Stack)
			if len(stack) > panicStackLimit {
				stack = stack[:panicStackLimit] + "\n... (truncated)"
			}
			r.emit(Event{Kind: ExperimentPanicked, ID: def.ID, Title: def.Title, Err: pe.Error(), Detail: stack})
		}
	}()
	return experiment.RunDefinition(ctx, def, cfg)
}
