package experiment

import (
	"context"
	"math"

	"liquid/internal/graph"
	"liquid/internal/prob"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// runA5 quantifies how much the paper's ties-lose rule (Section 2.2)
// matters: for even electorates the three tie rules differ by exactly the
// tie probability, which shrinks like 1/sqrt(n) for direct voting — so the
// modelling choice is asymptotically irrelevant, as the paper implicitly
// assumes.
func runA5(ctx context.Context, cfg Config) (*Outcome, error) {
	root := rng.New(cfg.Seed)
	sizes := dedupeSizes([]int{10, 40, 160, 640, cfg.scaleInt(2560, 640)})

	tab := report.NewTable("Ablation A5: tie-breaking rule (direct voting, even n, p in [0.4, 0.6])",
		"n", "P(tie)", "P ties-lose", "P ties-win", "P ties-coin", "spread", "spread * sqrt(n)")

	spreads := make([]float64, 0, len(sizes))
	ws := prob.NewWorkspace()
	for _, n := range sizes {
		in, err := uniformInstance(graph.NewComplete(n), 0.4, 0.6, root.Derive(uint64(n)))
		if err != nil {
			return nil, err
		}
		// One PMF per n gives every rule: the majority mass loses the tie,
		// and the tie's own mass sits at n/2 (every n here is even).
		pmf, err := ws.PMF(ws.UnitVoters(in.Competencies()))
		if err != nil {
			return nil, err
		}
		lose := prob.MajorityMass(pmf)
		tie := pmf[n/2]
		win := min(1, lose+tie)
		coin := min(1, lose+tie/2)
		spread := win - lose
		spreads = append(spreads, spread)
		tab.AddRow(report.Itoa(n), report.G(tie), report.F(lose), report.F(win),
			report.F(coin), report.G(spread), report.F(spread*math.Sqrt(float64(n))))

		// Internal consistency: spread equals the tie probability, coin sits
		// exactly between.
		if math.Abs(spread-tie) > 1e-12 || math.Abs(coin-(lose+win)/2) > 1e-12 {
			return nil, errf("tie-rule identities violated at n=%d", n)
		}
	}

	return &Outcome{
		Tables: []*report.Table{tab},
		Checks: []Check{
			check("tie-rule spread shrinks with n", isNonIncreasing(spreads, 1e-6),
				"spreads %v", spreads),
			check("spread is negligible at the largest n", spreads[len(spreads)-1] < 0.04,
				"spread %v", spreads[len(spreads)-1]),
		},
	}, nil
}
