package fault

import (
	"context"
	"errors"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// chainInstance builds a complete graph over 5 voters with strictly
// increasing competencies and the delegation chain 0 -> 1 -> 2, with 3 and
// 4 voting directly.
func chainInstance(t *testing.T) (*core.Instance, *core.DelegationGraph) {
	t.Helper()
	in, err := core.NewInstance(graph.NewComplete(5), []float64{0.5, 0.6, 0.7, 0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDelegationGraph(5)
	if err := d.SetDelegate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDelegate(1, 2); err != nil {
		t.Fatal(err)
	}
	return in, d
}

func TestLoseWeightDropsWholeChain(t *testing.T) {
	in, d := chainInstance(t)
	down := []bool{false, false, true, false, false} // sink of the chain is down
	rec, err := ApplyPolicy(in, d, down, nil, LoseWeight, 0.05, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Units 0, 1, 2 are lost; 3 and 4 survive.
	if rec.Lost != 3 {
		t.Fatalf("Lost = %d, want 3", rec.Lost)
	}
	if res.TotalWeight != 2 {
		t.Fatalf("TotalWeight = %d, want 2", res.TotalWeight)
	}
	for _, v := range []int{3, 4} {
		if res.Weight[v] != 1 {
			t.Errorf("direct voter %d weight %d, want 1", v, res.Weight[v])
		}
	}
}

func TestFallbackToDirectStopsAtPredecessor(t *testing.T) {
	in, d := chainInstance(t)
	down := []bool{false, false, true, false, false}
	rec, err := ApplyPolicy(in, d, down, nil, FallbackToDirect, 0.05, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Voter 1's delegate is down, so 1 becomes a sink holding its own unit
	// plus voter 0's; only voter 2's unit is lost.
	if rec.Lost != 1 || rec.FellBack != 1 {
		t.Fatalf("Lost = %d, FellBack = %d, want 1 and 1", rec.Lost, rec.FellBack)
	}
	if res.Weight[1] != 2 {
		t.Fatalf("fallback sink 1 weight %d, want 2", res.Weight[1])
	}
	if res.TotalWeight != 4 {
		t.Fatalf("TotalWeight = %d, want 4", res.TotalWeight)
	}
}

func TestRedelegateRewritesToApprovedAvailable(t *testing.T) {
	in, d := chainInstance(t)
	down := []bool{false, false, true, false, false}
	rec, err := ApplyPolicy(in, d, down, nil, Redelegate, 0.05, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Voter 1 redelegates to an approved available neighbour (3 or 4, the
	// more competent live voters).
	if rec.Redelegated != 1 {
		t.Fatalf("Redelegated = %d, want 1", rec.Redelegated)
	}
	nd := rec.Graph.Delegate[1]
	if nd != 3 && nd != 4 {
		t.Fatalf("voter 1 redelegated to %d, want 3 or 4", nd)
	}
	if res.TotalWeight != 4 {
		t.Fatalf("TotalWeight = %d, want 4", res.TotalWeight)
	}
	// The redelegation target now represents voters 0 and 1.
	if res.SinkOf[0] != nd || res.SinkOf[1] != nd {
		t.Fatalf("chain not rerouted: SinkOf = %v", res.SinkOf[:2])
	}
}

func TestAbstentionWithdrawsOwnUnitOnly(t *testing.T) {
	in, d := chainInstance(t)
	abstain := []bool{false, true, false, false, false}
	rec, err := ApplyPolicy(in, d, nil, abstain, FallbackToDirect, 0.05, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Voter 1 abstains but still relays: voter 0's unit reaches sink 2.
	if res.Weight[2] != 2 {
		t.Fatalf("sink 2 weight %d, want 2 (own + relayed)", res.Weight[2])
	}
	if res.TotalWeight != 4 {
		t.Fatalf("TotalWeight = %d, want 4", res.TotalWeight)
	}
}

// TestTwoCycleUnderEveryPolicy pins the repair of a cyclic realization.
// At alpha = 0 tied neighbours approve each other, so a mechanism can
// realize 0 <-> 1. Every policy must terminate and leave the cycle for
// Resolve to report as core.ErrCyclicDelegation — lose-weight's chain walk
// used to recurse around it until the stack overflowed — and so must the
// fault evaluator, whatever the policy.
func TestTwoCycleUnderEveryPolicy(t *testing.T) {
	in, err := core.NewInstance(graph.NewComplete(4), []float64{0.6, 0.6, 0.7, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDelegationGraph(4)
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 3}} {
		if err := d.SetDelegate(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, down := range [][]bool{nil, {false, false, false, true}} {
		for _, pol := range Policies() {
			rec, err := ApplyPolicy(in, d, down, nil, pol, 0, rng.New(1))
			if err != nil {
				t.Fatalf("%v, down %v: %v", pol, down, err)
			}
			if _, err := rec.Resolve(); !errors.Is(err, core.ErrCyclicDelegation) {
				t.Fatalf("%v, down %v: Resolve err = %v, want ErrCyclicDelegation", pol, down, err)
			}
		}
	}

	// Greedy-best at alpha = 0 on equal competencies realizes the same
	// 2-cycle: voters 0 and 1 pick each other.
	flat := make([]float64, 12)
	for i := range flat {
		flat[i] = 0.6
	}
	in, err = core.NewInstance(graph.NewComplete(12), flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range Policies() {
		opts := ElectionOptions{DownRate: 0.3, Policy: pol}
		opts.Replications = 4
		opts.Seed = 1
		if _, err := EvaluateUnderFaults(context.Background(), in, mechanism.GreedyBest{}, opts); !errors.Is(err, core.ErrCyclicDelegation) {
			t.Fatalf("%v: EvaluateUnderFaults err = %v, want ErrCyclicDelegation", pol, err)
		}
	}
}

func TestPolicyConservation(t *testing.T) {
	// Under every policy: surviving weight + lost weight == n.
	s := rng.New(42)
	g, err := graph.RandomRegular(60, 6, s)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 60)
	for i := range p {
		p[i] = 0.4 + 0.5*s.Float64()
	}
	in, err := core.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	mech := mechanism.ApprovalThreshold{Alpha: 0.05, Threshold: mechanism.ConstantThreshold(2)}
	d, err := mech.Apply(in, s.DeriveString("mech"))
	if err != nil {
		t.Fatal(err)
	}
	down := make([]bool, 60)
	for v := range down {
		down[v] = s.Bernoulli(0.2)
	}
	for _, pol := range Policies() {
		rec, err := ApplyPolicy(in, d, down, nil, pol, 0.05, s.DeriveString(pol.String()))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		res, err := rec.Resolve()
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.TotalWeight+rec.Lost != 60 {
			t.Errorf("%v: surviving %d + lost %d != 60", pol, res.TotalWeight, rec.Lost)
		}
		for _, sk := range res.Sinks {
			if down[sk] && res.Weight[sk] > 0 {
				t.Errorf("%v: down node %d holds weight %d", pol, sk, res.Weight[sk])
			}
		}
	}
}

func TestEvaluateUnderFaultsDeterministicAcrossWorkers(t *testing.T) {
	s := rng.New(5)
	g, err := graph.RandomRegular(50, 6, s)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, 50)
	for i := range p {
		p[i] = 0.45 + 0.4*s.Float64()
	}
	in, err := core.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	mech := mechanism.ApprovalThreshold{Alpha: 0.05, Threshold: mechanism.ConstantThreshold(2)}
	run := func(workers int) *ElectionResult {
		t.Helper()
		opts := ElectionOptions{
			DownRate: 0.15,
			Policy:   FallbackToDirect,
			Alpha:    0.05,
		}
		opts.Replications = 16
		opts.Workers = workers
		opts.Seed = 77
		res, err := EvaluateUnderFaults(context.Background(), in, mech, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.PM != b.PM || a.PD != b.PD || a.MeanLost != b.MeanLost || a.MeanDown != b.MeanDown {
		t.Fatalf("worker count changed results: %+v vs %+v", a, b)
	}
	if a.PM <= 0 || a.PM >= 1 {
		t.Fatalf("implausible PM %v", a.PM)
	}
}
