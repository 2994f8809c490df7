package experiment

import (
	"context"
	"fmt"
	"math"

	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/popmodel"
	"liquid/internal/prob"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// runL4 validates Lemma 4 (from Kahng et al., restated and used by the
// paper): the direct-vote total with bounded competencies converges to a
// normal distribution. We measure the Kolmogorov-Smirnov distance between
// the exact Poisson-binomial law and its matching normal as n grows.
func runL4(ctx context.Context, cfg Config) (*Outcome, error) {
	root := rng.New(cfg.Seed)
	sizes := dedupeSizes([]int{25, 100, 400, 1600, cfg.scaleInt(4000, 1600)})

	tab := report.NewTable("Lemma 4: CLT for direct voting, p in (0.2, 0.8)",
		"n", "mu", "sigma", "KS distance", "KS * sqrt(n)")

	dists := make([]float64, 0, len(sizes))
	ws := prob.NewWorkspace()
	for _, n := range sizes {
		s := root.Derive(uint64(n))
		p := make([]float64, n)
		for i := range p {
			p[i] = 0.2 + 0.6*s.Float64()
		}
		pmf, err := ws.PMF(ws.UnitVoters(p))
		if err != nil {
			return nil, err
		}
		var st prob.SumStats
		st.AddUnits(p)
		nrm := prob.Normal{Mu: st.Mean(), Sigma: math.Sqrt(st.Variance())}
		d := prob.KolmogorovDistanceToNormal(pmf, nrm)
		dists = append(dists, d)
		tab.AddRow(report.Itoa(n), report.F2(nrm.Mu), report.F2(nrm.Sigma),
			report.G(d), report.F(d*math.Sqrt(float64(n))))
	}

	return &Outcome{
		Tables: []*report.Table{tab},
		Checks: []Check{
			check("KS distance shrinks with n", isNonIncreasing(dists, 1e-6), "distances %v", dists),
			check("KS distance small at the largest n", dists[len(dists)-1] < 0.01,
				"distance %v", dists[len(dists)-1]),
			check("Berry-Esseen 1/sqrt(n) rate visible",
				dists[len(dists)-1]*math.Sqrt(float64(sizes[len(sizes)-1])) < 1,
				"KS*sqrt(n) %v", dists[len(dists)-1]*math.Sqrt(float64(sizes[len(sizes)-1]))),
		},
	}, nil
}

// runX4 validates the probabilistic-competency extension (Section 6, the
// Halpern et al. bridge): competencies are drawn from a distribution per
// instance, and the desiderata become probabilistic — the fraction of
// instance draws with positive gain should be high, the fraction with
// nontrivial harm near zero, for distribution families centred below 1/2.
func runX4(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(501, 201)
	instances := cfg.scaleInt(24, 8)
	reps := cfg.scaleInt(16, 6)

	type popDef struct {
		name string
		pop  popmodel.Population
	}
	pops := []popDef{
		{"uniform[0.30,0.49]", popmodel.Population{
			Competency: prob.UniformSampler{Lo: 0.30, Hi: 0.49}}},
		{"beta(2,3)->[0.2,0.6]", popmodel.Population{
			Competency: prob.ClampedSampler{
				Base: prob.BetaSampler{Alpha: 2, Beta: 3},
				Lo:   0.2, Hi: 0.6}}},
		{"truncnorm(0.45,0.05)", popmodel.Population{
			Competency: prob.TruncatedNormalSampler{Mu: 0.45, Sigma: 0.05, Lo: 0.2, Hi: 0.6}}},
		{"uniform[0.52,0.80] (DNH)", popmodel.Population{
			Competency: prob.UniformSampler{Lo: 0.52, Hi: 0.80}}},
	}

	tab := report.NewTable(
		fmt.Sprintf("Extension X4: probabilistic competencies on K_n (n=%d, %d instance draws)", n, instances),
		"distribution", "mean gain", "frac positive", "frac harmful", "worst loss")

	var (
		spgFracs  []float64
		harmFracs []float64
	)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	for i, pd := range pops {
		v, err := popmodel.Evaluate(ctx, pd.pop, mech, popmodel.EvaluateOptions{
			N: n, Instances: instances, Replications: reps, HarmEps: 0.02,
			Seed: rng.Derive(cfg.Seed, "X4", pd.name),
		})
		if err != nil {
			return nil, err
		}
		tab.AddRow(pd.name, report.F(v.MeanGain), report.F2(v.FracPositive),
			report.F2(v.FracHarmful), report.F(v.WorstLoss))
		if i < 3 {
			spgFracs = append(spgFracs, v.FracPositive)
		}
		harmFracs = append(harmFracs, v.FracHarmful)
	}

	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("below-1/2 distributions gain on (almost) every draw",
				minFloat(spgFracs) >= 0.9, "positive fractions %v", spgFracs),
			check("no distribution shows nontrivial harm", maxAbs(harmFracs) == 0,
				"harmful fractions %v", harmFracs),
		},
	}, nil
}

// runX5 contrasts sparse, poorly connected topologies with the paper's
// good classes: on cycles, paths, and grids the approval sets are tiny, so
// delegation barely moves the outcome — connectivity is what buys gain.
// Small-world rewiring (Watts-Strogatz) restores some of it.
func runX5(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(1000, 300)
	reps := cfg.scaleInt(24, 8)
	root := rng.New(cfg.Seed)

	type topDef struct {
		name  string
		build func(s *rng.Stream) (graph.Topology, error)
	}
	tops := []topDef{
		{"cycle", func(_ *rng.Stream) (graph.Topology, error) { return graph.Cycle(n) }},
		{"path", func(_ *rng.Stream) (graph.Topology, error) { return graph.Path(n) }},
		{"grid", func(_ *rng.Stream) (graph.Topology, error) {
			side := int(math.Sqrt(float64(n)))
			return graph.Grid(side, side)
		}},
		{"small-world k=8 beta=0.2", func(s *rng.Stream) (graph.Topology, error) {
			return graph.WattsStrogatz(n, 8, 0.2, s)
		}},
		{"random 8-regular", func(s *rng.Stream) (graph.Topology, error) {
			return graph.RandomRegular(n, 8, s)
		}},
		{"complete", func(_ *rng.Stream) (graph.Topology, error) { return graph.NewComplete(n), nil }},
	}

	tab := report.NewTable(
		fmt.Sprintf("Extension X5: connectivity vs gain (threshold mechanism, alpha=0.05, SPG regime, n~%d)", n),
		"topology", "mean degree", "delegators", "longest chain", "gain", "gain 95% CI")

	gains := make(map[string]float64, len(tops))
	for i, td := range tops {
		top, err := td.build(root.Derive(uint64(i) + 1))
		if err != nil {
			return nil, err
		}
		in, err := uniformInstance(top, 0.30, 0.49, root.Derive(uint64(i)*17+3))
		if err != nil {
			return nil, err
		}
		res, err := election.EvaluateMechanism(ctx, in, mechanism.ApprovalThreshold{Alpha: 0.05}, election.Options{
			Replications: reps, Seed: rng.Derive(cfg.Seed, "X5", td.name), Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		gains[td.name] = res.Gain
		tab.AddRow(td.name, report.F2(graph.Degrees(top).Mean), report.F2(res.MeanDelegators),
			report.F2(res.MeanLongestChain), report.F(res.Gain), report.Interval(res.GainLo, res.GainHi))
	}

	return &Outcome{
		Replications: reps,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("complete graph dominates sparse rings/paths",
				gains["complete"] > gains["cycle"] && gains["complete"] > gains["path"],
				"complete %v cycle %v path %v", gains["complete"], gains["cycle"], gains["path"]),
			check("8-regular beats degree-2 structures",
				gains["random 8-regular"] >= gains["cycle"] && gains["random 8-regular"] >= gains["path"],
				"8-regular %v cycle %v path %v", gains["random 8-regular"], gains["cycle"], gains["path"]),
			check("no topology harms in the SPG regime",
				minFloat([]float64{gains["cycle"], gains["path"], gains["grid"],
					gains["small-world k=8 beta=0.2"], gains["random 8-regular"], gains["complete"]}) >= -0.01,
				"gains %v", gains),
		},
	}, nil
}
