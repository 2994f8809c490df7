package dynamics

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

// countdownCtx is a context whose Err becomes non-nil after a fixed number
// of Err calls, so per-period cancellation checks can be exercised
// mid-sequence deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(calls int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(calls))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func churnInstance(t *testing.T, n int, seed uint64) *core.Instance {
	t.Helper()
	s := rng.New(seed)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.30 + 0.19*s.Float64()
	}
	return mustInstance(t, graph.NewComplete(n), p)
}

// TestChurnMatchesFromScratch is the bit-identity gate for the churn path:
// every step's PM, scored through the scenario's score cache, must equal
// from-scratch exact scoring of the step's Delegation snapshot.
func TestChurnMatchesFromScratch(t *testing.T) {
	in := churnInstance(t, 60, 11)
	steps, err := Churn(context.Background(), in, ChurnOptions{Alpha: 0.02, Periods: 15, MovesPerPeriod: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 15 {
		t.Fatalf("got %d steps", len(steps))
	}
	for _, st := range steps {
		d := &core.DelegationGraph{Delegate: append([]int(nil), st.Delegation...)}
		res, err := d.Resolve()
		if err != nil {
			t.Fatalf("period %d: %v", st.Period, err)
		}
		want, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			t.Fatalf("period %d: %v", st.Period, err)
		}
		if math.Float64bits(st.PM) != math.Float64bits(want) {
			t.Fatalf("period %d: churn PM %v != from-scratch %v", st.Period, st.PM, want)
		}
		if st.Delegators != d.NumDelegators() {
			t.Fatalf("period %d: delegator count %d != %d", st.Period, st.Delegators, d.NumDelegators())
		}
	}
}

func TestChurnDeterminism(t *testing.T) {
	in := churnInstance(t, 40, 5)
	opts := ChurnOptions{Alpha: 0.05, Periods: 8, MovesPerPeriod: 3}
	a, err := Churn(context.Background(), in, opts, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(context.Background(), in, opts, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].PM) != math.Float64bits(b[i].PM) {
			t.Fatalf("step %d: PM differs across equal-seed runs", i)
		}
		for v := range a[i].Delegation {
			if a[i].Delegation[v] != b[i].Delegation[v] {
				t.Fatalf("step %d: delegation differs across equal-seed runs", i)
			}
		}
	}
}

func TestChurnCancellation(t *testing.T) {
	in := churnInstance(t, 20, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Churn(ctx, in, ChurnOptions{Alpha: 0.05}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	// Mid-sequence: allow two period checks, fail on the third.
	steps, err := Churn(newCountdownCtx(2), in, ChurnOptions{Alpha: 0.05, Periods: 10}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sequence: err = %v", err)
	}
	if steps != nil {
		t.Fatalf("cancelled run returned %d steps", len(steps))
	}
}

func TestChurnValidation(t *testing.T) {
	in := churnInstance(t, 10, 3)
	if _, err := Churn(context.Background(), in, ChurnOptions{Alpha: -1}, 1); !errors.Is(err, ErrInvalidDynamics) {
		t.Fatalf("err = %v", err)
	}
	empty := mustInstance(t, graph.NewComplete(0), nil)
	if _, err := Churn(context.Background(), empty, ChurnOptions{}, 1); !errors.Is(err, ErrInvalidDynamics) {
		t.Fatalf("err = %v", err)
	}
}

// TestBestResponseFinalProbExact pins the scenario-backed evaluator to the
// from-scratch exact score of the returned profile — the invariant that
// keeps reproduced best-response traces byte-stable.
func TestBestResponseFinalProbExact(t *testing.T) {
	for _, seed := range []uint64{2, 13, 31} {
		in := churnInstance(t, 25, seed)
		tr, err := BestResponse(in, Options{Alpha: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Delegation.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(tr.FinalProb) != math.Float64bits(want) {
			t.Fatalf("seed %d: FinalProb %v != exact re-score %v", seed, tr.FinalProb, want)
		}
	}
}
