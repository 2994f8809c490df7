package history

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

func replayInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	s := rng.New(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.30 + 0.19*s.Float64()
	}
	return mustInstance(t, graph.NewComplete(n), p)
}

func TestObserveIssueValidation(t *testing.T) {
	in := replayInstance(t, 4, 1)
	uniform := &TrackRecord{T: 3, Scores: make([]int, 4)}
	if err := uniform.ObserveIssue(in, []int{0}, rng.New(1)); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("uniform record accepted ObserveIssue: %v", err)
	}
	tr := NewTrackRecord(3)
	if err := tr.ObserveIssue(in, []int{0}, rng.New(1)); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("size mismatch accepted: %v", err)
	}
	tr = NewTrackRecord(4)
	if err := tr.ObserveIssue(in, []int{4}, rng.New(1)); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("out-of-range participant accepted: %v", err)
	}
}

// TestObserveIssueRejectsBeforeDrawing: a bad participant late in the
// list fails the whole issue before anything is counted or drawn, so the
// record and the stream stay as they were.
func TestObserveIssueRejectsBeforeDrawing(t *testing.T) {
	in := replayInstance(t, 4, 1)
	tr := NewTrackRecord(4)
	s, twin := rng.New(5), rng.New(5)
	if err := tr.ObserveIssue(in, []int{0, 1, 9}, s); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("out-of-range participant accepted: %v", err)
	}
	if tr.T != 0 || !slices.Equal(tr.Counts, make([]int, 4)) || !slices.Equal(tr.Scores, make([]int, 4)) {
		t.Fatalf("rejected issue changed the record: T=%d Counts=%v Scores=%v", tr.T, tr.Counts, tr.Scores)
	}
	if s.Uint64() != twin.Uint64() {
		t.Fatal("rejected issue drew from the stream")
	}
}

// TestObserveIssueLocality is the sparsity property the delta path relies
// on: an issue only moves its participants' accuracies.
func TestObserveIssueLocality(t *testing.T) {
	in := replayInstance(t, 6, 2)
	tr := NewTrackRecord(6)
	for v := 0; v < 6; v++ {
		if got := tr.Accuracy(v); got != 0.5 {
			t.Fatalf("prior accuracy = %v", got)
		}
	}
	s := rng.New(3)
	if err := tr.ObserveIssue(in, []int{1, 4}, s); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		touched := v == 1 || v == 4
		if (tr.Accuracy(v) != 0.5) != touched {
			t.Fatalf("voter %d: accuracy %v, touched=%v", v, tr.Accuracy(v), touched)
		}
		wantCount := 0
		if touched {
			wantCount = 1
		}
		if tr.Counts[v] != wantCount {
			t.Fatalf("voter %d: count %d", v, tr.Counts[v])
		}
	}
	if tr.T != 1 {
		t.Fatalf("T = %d", tr.T)
	}
}

func TestReplayValidation(t *testing.T) {
	in := replayInstance(t, 5, 1)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	if _, err := Replay(context.Background(), in, mech, ReplayOptions{Participation: -0.1}, 1); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Replay(context.Background(), in, mech, ReplayOptions{Alpha: -1}, 1); !errors.Is(err, ErrInvalidHistory) {
		t.Fatalf("err = %v", err)
	}
}

// cancelAfterMech cancels a context during its k-th Apply call, which
// lands between periods of a Replay — a deterministic mid-sequence
// cancellation regardless of worker count.
type cancelAfterMech struct {
	inner  mechanism.Mechanism
	cancel context.CancelFunc
	after  int
	calls  int
}

func (m *cancelAfterMech) Name() string { return m.inner.Name() }

func (m *cancelAfterMech) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	m.calls++
	if m.calls == m.after {
		m.cancel()
	}
	return m.inner.Apply(in, s)
}

func TestReplayCancellation(t *testing.T) {
	in := replayInstance(t, 10, 4)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, in, mech, ReplayOptions{Periods: 3}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	// Mid-sequence: the second period's mechanism call cancels, so the
	// third period's top-of-loop check aborts the run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cm := &cancelAfterMech{inner: mech, cancel: cancel2, after: 2}
	steps, err := Replay(ctx2, in, cm, ReplayOptions{Periods: 6, Workers: 1, Replications: 4}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sequence: err = %v", err)
	}
	if steps != nil {
		t.Fatalf("cancelled replay returned %d steps", len(steps))
	}
	if cm.calls != 2 {
		t.Fatalf("mechanism ran %d times after cancellation", cm.calls)
	}
}

// TestReplayDeterministicAcrossWorkers is the reproducibility gate for the
// incremental replay path: the full step sequence must be bit-identical
// for every worker count.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	in := replayInstance(t, 24, 6)
	mech := mechanism.ApprovalThreshold{Alpha: 0.04}
	var base []ReplayStep
	for _, workers := range []int{1, 4, 16} {
		steps, err := Replay(context.Background(), in, mech,
			ReplayOptions{Periods: 6, IssuesPerPeriod: 3, Participation: 0.4, Alpha: 0.04, Replications: 8, Workers: workers}, 17)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = steps
			continue
		}
		if len(steps) != len(base) {
			t.Fatalf("workers=%d: %d steps vs %d", workers, len(steps), len(base))
		}
		for i := range steps {
			a, b := base[i], steps[i]
			if math.Float64bits(a.SurrogatePD) != math.Float64bits(b.SurrogatePD) ||
				math.Float64bits(a.SurrogatePM) != math.Float64bits(b.SurrogatePM) ||
				math.Float64bits(a.TruthPM) != math.Float64bits(b.TruthPM) ||
				math.Float64bits(a.Misdelegation) != math.Float64bits(b.Misdelegation) ||
				a.EvalSeed != b.EvalSeed {
				t.Fatalf("workers=%d period %d: steps differ: %+v vs %+v", workers, i, a, b)
			}
			for v := range a.Competencies {
				if math.Float64bits(a.Competencies[v]) != math.Float64bits(b.Competencies[v]) {
					t.Fatalf("workers=%d period %d: competency %d differs", workers, i, v)
				}
			}
		}
	}
}

// TestReplaySurrogateMatchesFreshPlan re-runs each period's evaluation on
// a from-scratch plan built from the step's Competencies snapshot and
// EvalSeed; the delta-chained plan must agree bit-for-bit.
func TestReplaySurrogateMatchesFreshPlan(t *testing.T) {
	in := replayInstance(t, 20, 8)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	opts := ReplayOptions{Periods: 5, IssuesPerPeriod: 2, Participation: 0.5, Alpha: 0.05, Replications: 8, Workers: 2}
	steps, err := Replay(context.Background(), in, mech, opts, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		fresh, err := core.NewInstance(in.Topology(), st.Competencies)
		if err != nil {
			t.Fatalf("period %d: %v", st.Period, err)
		}
		plan, err := election.NewPlan(fresh, election.Options{Replications: opts.Replications, Workers: opts.Workers})
		if err != nil {
			t.Fatalf("period %d: %v", st.Period, err)
		}
		results, err := election.EvaluateSweep(context.Background(), plan,
			[]election.SweepPoint{{Mechanism: mech, Seed: st.EvalSeed}})
		if err != nil {
			t.Fatalf("period %d: %v", st.Period, err)
		}
		if math.Float64bits(results[0].PD) != math.Float64bits(st.SurrogatePD) {
			t.Fatalf("period %d: chained PD %v != fresh %v", st.Period, st.SurrogatePD, results[0].PD)
		}
		if math.Float64bits(results[0].PM) != math.Float64bits(st.SurrogatePM) {
			t.Fatalf("period %d: chained PM %v != fresh %v", st.Period, st.SurrogatePM, results[0].PM)
		}
	}
}

// TestReplayLearns: with enough observation the surrogate tracks truth, so
// misdelegation should end no higher than it started on average.
func TestReplayLearns(t *testing.T) {
	in := replayInstance(t, 30, 12)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	steps, err := Replay(context.Background(), in, mech,
		ReplayOptions{Periods: 12, IssuesPerPeriod: 8, Participation: 0.8, Alpha: 0.05, Replications: 8, Workers: 2}, 31)
	if err != nil {
		t.Fatal(err)
	}
	first, last := steps[0], steps[len(steps)-1]
	if last.Misdelegation > first.Misdelegation+0.25 {
		t.Fatalf("misdelegation rose sharply: %v -> %v", first.Misdelegation, last.Misdelegation)
	}
	if last.TruthPM <= 0 || last.TruthPM >= 1 {
		t.Fatalf("TruthPM out of range: %v", last.TruthPM)
	}
}
