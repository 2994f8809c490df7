package fault

import (
	"context"
	"fmt"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// TestEvaluateSweepMatchesPointwise pins the fault sweep's contract:
// sharing one score cache across a sweep's points changes no result, so
// EvaluateSweep is bit for bit a loop of EvaluateUnderFaults calls. The
// points share a seed (common random numbers, as in R1), so their resolved
// multisets collide and the shared cache is actually hit.
func TestEvaluateSweepMatchesPointwise(t *testing.T) {
	ctx := context.Background()
	s := rng.New(9)
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
	var points []SweepPoint
	for _, rate := range []float64{0, 0.1, 0.3} {
		for _, policy := range Policies() {
			opts := ElectionOptions{DownRate: rate, AbstainRate: rate / 2, Policy: policy, Alpha: 0.05}
			opts.Replications = 12
			opts.Workers = 2
			opts.Seed = 31
			points = append(points, SweepPoint{Mechanism: mech, Opts: opts})
		}
	}
	sweep, err := EvaluateSweep(ctx, in, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		want, err := EvaluateUnderFaults(ctx, in, pt.Mechanism, pt.Opts)
		if err != nil {
			t.Fatal(err)
		}
		// %v prints every float in its shortest round-trip form, so equal
		// strings mean equal bits.
		if got, want := fmt.Sprintf("%+v", *sweep[i]), fmt.Sprintf("%+v", *want); got != want {
			t.Fatalf("point %d: sweep %s != pointwise %s", i, got, want)
		}
	}
}
