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

// TestEvaluateSweepPerPointOptions pins what the sweep takes per point and
// what it shares. Seed and Replications stay per point, with 0 meaning 64
// even after a point that asked for fewer; VoteSamples, ExactCostLimit and
// Workers are the one Plan's, so a point that differs from the first is an
// error rather than silently run on the first point's values; and rates
// are validated with their usual messages.
func TestEvaluateSweepPerPointOptions(t *testing.T) {
	ctx := context.Background()
	in := propertyInstance(t, 40, 3)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	few := ElectionOptions{DownRate: 0.1, Policy: FallbackToDirect}
	few.Replications, few.Seed, few.Workers = 3, 1, 2
	dflt := ElectionOptions{DownRate: 0.2, Policy: LoseWeight}
	dflt.Seed, dflt.Workers = 2, 2
	sweep, err := EvaluateSweep(ctx, in, []SweepPoint{{mech, few}, {mech, dflt}})
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range []ElectionOptions{few, dflt} {
		want, err := EvaluateUnderFaults(ctx, in, mech, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", *sweep[i]), fmt.Sprintf("%+v", *want); got != want {
			t.Fatalf("point %d: sweep %s != pointwise %s", i, got, want)
		}
	}
	explicit := dflt
	explicit.Replications = 64
	want, err := EvaluateUnderFaults(ctx, in, mech, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if *sweep[1] != *want {
		t.Fatalf("0 replications: %+v, want the 64-replication %+v", *sweep[1], *want)
	}

	for _, tweak := range []func(*ElectionOptions){
		func(o *ElectionOptions) { o.VoteSamples = 10 },
		func(o *ElectionOptions) { o.ExactCostLimit = 1 << 10 },
		func(o *ElectionOptions) { o.Workers = 1 },
	} {
		odd := dflt
		tweak(&odd)
		if _, err := EvaluateSweep(ctx, in, []SweepPoint{{mech, few}, {mech, odd}}); err == nil {
			t.Fatalf("point with options %+v accepted against the first point's %+v", odd.Options, few.Options)
		}
	}

	for _, c := range []struct {
		down, abstain float64
		msg           string
	}{
		{1, 0, "fault: down rate 1 not in [0, 1)"},
		{-0.1, 0, "fault: down rate -0.1 not in [0, 1)"},
		{0, 1.5, "fault: abstain rate 1.5 not in [0, 1)"},
	} {
		opts := few
		opts.DownRate, opts.AbstainRate = c.down, c.abstain
		if _, err := EvaluateUnderFaults(ctx, in, mech, opts); err == nil || err.Error() != c.msg {
			t.Fatalf("rates (%v, %v): err = %v, want %q", c.down, c.abstain, err, c.msg)
		}
	}
}
