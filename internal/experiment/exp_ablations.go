package experiment

import (
	"context"
	"fmt"
	"math"

	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/recycle"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// runA1 ablates the delegation threshold j(n) on the complete graph: small
// thresholds maximize delegation and gain in the SPG regime; thresholds
// near n suppress delegation entirely.
func runA1(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(1001, 301)
	reps := cfg.scaleInt(32, 8)
	root := rng.New(cfg.Seed)
	in, err := uniformInstance(graph.NewComplete(n), 0.30, 0.49, root.DeriveString("inst"))
	if err != nil {
		return nil, err
	}

	type thDef struct {
		name string
		j    int
	}
	logN := int(math.Ceil(math.Log(float64(n))))
	sqrtN := int(math.Ceil(math.Sqrt(float64(n))))
	ths := []thDef{
		{"1", 1},
		{"log n", logN},
		{"n^{1/2}", sqrtN},
		{"n/4", n / 4},
		{"n/2", n / 2},
		{"9n/10", 9 * n / 10},
	}

	tab := report.NewTable("Ablation A1: threshold j(n) on K_n (alpha=0.05, SPG regime)",
		"j(n)", "delegators", "gain", "gain 95% CI")
	// One sweep over the threshold grid: the instance, its P^D, and the
	// resolution-score cache are shared across all six points; each point's
	// seed is derived exactly as the old per-point calls derived it, so the
	// table is unchanged.
	points := make([]election.SweepPoint, len(ths))
	for i, th := range ths {
		points[i] = election.SweepPoint{
			Mechanism: mechanism.ApprovalThreshold{Alpha: 0.05, Threshold: mechanism.ConstantThreshold(th.j)},
			Seed:      rng.Derive(cfg.Seed, "A1", fmt.Sprintf("j=%d", th.j)),
		}
	}
	results, err := evaluatePoints(ctx, in,
		election.Options{Replications: reps, Workers: cfg.Workers}, points)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, 0, len(ths))
	delegs := make([]float64, 0, len(ths))
	for i, th := range ths {
		res := results[i]
		gains = append(gains, res.Gain)
		delegs = append(delegs, res.MeanDelegators)
		tab.AddRow(th.name, report.F2(res.MeanDelegators), report.F(res.Gain),
			report.Interval(res.GainLo, res.GainHi))
	}

	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("small thresholds gain", gains[0] > 0 && gains[1] > 0, "gains %v", gains),
			check("delegation count decreases with threshold", isNonIncreasing(delegs, 1), "delegators %v", delegs),
			check("huge threshold converges to direct voting", math.Abs(gains[len(gains)-1]) < 0.03,
				"gain at 9n/10 = %v", gains[len(gains)-1]),
		},
	}, nil
}

// runA2 ablates the approval margin alpha: larger alpha increases the
// per-delegation expectation boost (each delegation gains >= alpha) but
// shrinks approval sets; the partition complexity of the induced recycle
// structure scales like 1/alpha.
func runA2(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(1001, 301)
	reps := cfg.scaleInt(32, 8)
	root := rng.New(cfg.Seed)
	in, err := uniformInstance(graph.NewComplete(n), 0.30, 0.49, root.DeriveString("inst"))
	if err != nil {
		return nil, err
	}

	alphas := []float64{0.01, 0.02, 0.05, 0.1, 0.15}
	tab := report.NewTable("Ablation A2: approval margin alpha on K_n (SPG regime)",
		"alpha", "1/alpha", "partition complexity c", "delegators", "gain", "gain 95% CI")

	// The alpha grid as one sweep: prewarming the approval memos up front
	// moves their construction off the replication path (a pure warm-up —
	// mechanisms build them on demand anyway), and the per-point seeds
	// match the old per-point calls exactly.
	points := make([]election.SweepPoint, len(alphas))
	for i, alpha := range alphas {
		points[i] = election.SweepPoint{
			Mechanism: mechanism.ApprovalThreshold{Alpha: alpha},
			Seed:      rng.Derive(cfg.Seed, "A2", fmt.Sprintf("alpha=%g", alpha)),
		}
	}
	results, err := evaluatePoints(ctx, in,
		election.Options{Replications: reps, Workers: cfg.Workers}, points, alphas...)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, 0, len(alphas))
	cs := make([]float64, 0, len(alphas))
	for i, alpha := range alphas {
		res := results[i]
		rg, err := recycle.FromCompleteDelegation(in, alpha, 1)
		if err != nil {
			return nil, err
		}
		c := rg.PartitionComplexity()
		gains = append(gains, res.Gain)
		cs = append(cs, float64(c))
		tab.AddRow(report.G(alpha), report.F2(1/alpha), report.Itoa(c),
			report.F2(res.MeanDelegators), report.F(res.Gain), report.Interval(res.GainLo, res.GainHi))
	}

	// c should be bounded by 1/alpha (paper: c <= 1/alpha) and decrease as
	// alpha grows.
	cBounded := true
	for i, alpha := range alphas {
		if cs[i] > 1/alpha+1 {
			cBounded = false
		}
	}
	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("partition complexity bounded by 1/alpha", cBounded, "c %v", cs),
			check("complexity decreases with alpha", isNonIncreasing(cs, 0.5), "c %v", cs),
			check("all alphas gain in the SPG regime", minFloat(gains) > 0, "gains %v", gains),
		},
	}, nil
}

// runA3 compares the exact DP engine with the Monte-Carlo engine on the
// same resolved delegation graphs: probabilities must agree within
// sampling error, and the exact engine's determinism is verified.
func runA3(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(801, 201)
	votes := cfg.scaleInt(60000, 20000)
	root := rng.New(cfg.Seed)
	in, err := uniformInstance(graph.NewComplete(n), 0.30, 0.70, root.DeriveString("inst"))
	if err != nil {
		return nil, err
	}

	// Note: no wall-clock columns here — experiment tables must be
	// byte-identical across runs and worker counts; the DP cost column is the
	// deterministic proxy for engine effort.
	tab := report.NewTable("Ablation A3: exact DP vs Monte-Carlo scoring of identical delegation graphs",
		"realization", "sinks", "DP cost", "exact P^M", "MC P^M", "|diff|")

	maxDiff := 0.0
	deterministic := true
	for r := 0; r < 5; r++ {
		s := root.Derive(uint64(r) + 1)
		d, err := (mechanism.ApprovalThreshold{Alpha: 0.03}).Apply(in, s)
		if err != nil {
			return nil, err
		}
		res, err := d.Resolve()
		if err != nil {
			return nil, err
		}
		exact, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			return nil, err
		}
		again, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			return nil, err
		}
		if again != exact {
			deterministic = false
		}
		mc, err := election.ResolutionProbabilityMC(ctx, in, res, votes, s.DeriveString("mc"))
		if err != nil {
			return nil, err
		}
		diff := math.Abs(exact - mc)
		if diff > maxDiff {
			maxDiff = diff
		}
		cost := int64(len(res.Sinks)) * int64(res.TotalWeight)
		tab.AddRow(report.Itoa(r), report.Itoa(len(res.Sinks)), report.Itoa(int(cost)),
			report.F(exact), report.F(mc), report.F(diff))
	}

	// MC standard error at p ~ 0.5 is 0.5/sqrt(votes); allow 5 sigma.
	tol := 5 * 0.5 / math.Sqrt(float64(votes))
	return &Outcome{
		Replications: 5,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("engines agree within sampling error", maxDiff <= tol, "max diff %v, tol %v", maxDiff, tol),
			check("exact engine is deterministic", deterministic, ""),
		},
	}, nil
}
