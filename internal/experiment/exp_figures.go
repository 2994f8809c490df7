package experiment

import (
	"context"
	"fmt"
	"math"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// runF1 reproduces Figure 1: the star topology with a competent center
// (p = 2/3) and slightly weaker leaves (p = 3/5). Direct voting tends to
// certainty as n grows; any delegate-to-strictly-better mechanism funnels
// every vote to the center, fixing P^M at exactly 2/3.
func runF1(ctx context.Context, cfg Config) (*Outcome, error) {
	sizes := dedupeSizes([]int{9, 33, 101, 501, cfg.scaleInt(2001, 501)})
	tab := newGainTable("Figure 1: star with center p=2/3, leaves p=3/5 (greedy delegation)")

	var (
		gains   []float64
		lastPD  float64
		lastPM  float64
		checkPM = true
	)
	for _, n := range sizes {
		top, err := graph.Star(n)
		if err != nil {
			return nil, err
		}
		p := make([]float64, n)
		p[0] = 2.0 / 3
		for i := 1; i < n; i++ {
			p[i] = 3.0 / 5
		}
		in, err := core.NewInstance(top, p)
		if err != nil {
			return nil, err
		}
		res, err := election.EvaluateMechanism(ctx, in, mechanism.GreedyBest{Alpha: 0.01}, election.Options{
			Replications: 4, // the mechanism is deterministic here
			Seed:         cfg.Seed,
			Workers:      cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		addGainRow(tab, n, res)
		gains = append(gains, res.Gain)
		lastPD, lastPM = res.PD, res.PM
		if math.Abs(res.PM-2.0/3) > 1e-9 {
			checkPM = false
		}
	}

	return &Outcome{
		Replications: 4,
		Tables:       []*report.Table{tab},
		Checks: []Check{
			check("delegation fixes P^M at 2/3", checkPM, "last P^M = %.4f", lastPM),
			check("direct voting tends to 1", lastPD > 0.99, "last P^D = %.4f", lastPD),
			check("loss approaches 1/3", math.Abs(gains[len(gains)-1]+(lastPD-2.0/3)) < 1e-9 && gains[len(gains)-1] < -0.3,
				"last gain = %.4f", gains[len(gains)-1]),
			check("loss grows with n (negative gain monotone)", isNonIncreasing(gains, 1e-9),
				"gains = %v", gains),
		},
	}, nil
}

// runF2 reproduces the Figure 2 example: nine voters with the printed
// competencies, alpha = 0.01, Algorithm 1 with threshold j = 0, on the
// complete graph. The output is one realized delegation graph plus its
// resolution, with the structural facts the figure illustrates verified.
func runF2(ctx context.Context, cfg Config) (*Outcome, error) {
	p := []float64{0.8, 0.6, 0.5, 0.4, 0.3, 0.3, 0.2, 0.2, 0.1}
	const alpha = 0.01
	in, err := core.NewInstance(graph.NewComplete(len(p)), p)
	if err != nil {
		return nil, err
	}
	s := rng.New(cfg.Seed)
	mech := mechanism.ApprovalThreshold{Alpha: alpha}
	d, err := mech.Apply(in, s)
	if err != nil {
		return nil, err
	}
	res, err := d.Resolve()
	if err != nil {
		return nil, err
	}

	view := in.ApprovalView(alpha)
	tab := report.NewTable("Figure 2: realized delegation graph (alpha=0.01, threshold 0)",
		"voter", "p", "|J(i)|", "delegates to", "sink", "sink weight")
	for i := range p {
		target := "-"
		if d.Delegate[i] != core.NoDelegate {
			target = fmt.Sprintf("v%d", d.Delegate[i]+1)
		}
		w := ""
		if res.SinkOf[i] == i {
			w = report.Itoa(res.Weight[i])
		}
		tab.AddRow(
			fmt.Sprintf("v%d", i+1),
			report.F(p[i]),
			report.Itoa(view.Count(i)),
			target,
			fmt.Sprintf("v%d", res.SinkOf[i]+1),
			w,
		)
	}

	pm, err := election.ResolutionProbabilityExact(in, res)
	if err != nil {
		return nil, err
	}
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		return nil, err
	}
	summary := report.NewTable("Figure 2: outcome", "quantity", "value")
	summary.AddRow("P^D (direct)", report.F(pd))
	summary.AddRow("P^M (delegation)", report.F(pm))
	summary.AddRow("gain", report.F(pm-pd))
	summary.AddRow("sinks", report.Itoa(len(res.Sinks)))
	summary.AddRow("max weight", report.Itoa(res.MaxWeight))
	summary.AddRow("longest chain", report.Itoa(res.LongestChain))

	everyEligibleDelegated := true
	for i := range p {
		if view.Count(i) > 0 && d.Delegate[i] == core.NoDelegate {
			everyEligibleDelegated = false
		}
	}
	localErr := d.ValidateLocal(in, alpha)

	return &Outcome{
		Replications: 1,
		Tables:       []*report.Table{tab, summary},
		Checks: []Check{
			check("delegation graph is acyclic", true, "longest chain %d", res.LongestChain),
			check("all delegations approved and local", localErr == nil, "%v", localErr),
			check("every voter with nonempty J(i) delegates (threshold 0)", everyEligibleDelegated, ""),
			check("top voter v1 is a sink", res.SinkOf[0] == 0, "sink of v1 = v%d", res.SinkOf[0]+1),
			check("delegation beats direct voting on this instance", pm > pd, "P^M=%.4f P^D=%.4f", pm, pd),
		},
	}, nil
}
