package experiment

import (
	"context"
	"fmt"
	"math"

	"liquid/internal/core"
	"liquid/internal/dynamics"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/history"
	"liquid/internal/mechanism"
	"liquid/internal/report"
	"liquid/internal/rng"
)

// R3 and R4 certify delta application on real evolving elections. Both
// experiments score every step twice — once along the delta chain, through
// the memoized exact kernels, and once from scratch — and their headline
// checks demand Float64bits equality, so the committed reproduction output
// is itself a bit-identity certificate for delta application. R3 churns
// one electorate's delegation profile (election.Scenario under
// dynamics.Churn); R4 evolves the electorate itself: Barabasi-Albert
// growth one add-voter delta at a time, then a partial-participation
// track-record replay whose surrogate plan advances through
// election.Plan.ApplyDelta (history.Replay).

// runR3 churns a complete-graph electorate's delegation profile for a few
// dozen periods and verifies each period's P^M against from-scratch exact
// scoring of the period's snapshot, and that the snapshot's resolution
// conserves the electorate's n votes.
func runR3(ctx context.Context, cfg Config) (*Outcome, error) {
	n := cfg.scaleInt(301, 61)
	periods := cfg.scaleInt(20, 6)
	const alpha = 0.05

	s := rng.New(rng.Derive(cfg.Seed, "R3", "instance"))
	in, err := uniformInstance(graph.NewComplete(n), 0.30, 0.49, s)
	if err != nil {
		return nil, err
	}
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		return nil, err
	}
	churnSeed := rng.Derive(cfg.Seed, "R3", "churn")
	opts := dynamics.ChurnOptions{Alpha: alpha, Periods: periods, MovesPerPeriod: 5}
	steps, err := dynamics.Churn(ctx, in, opts, churnSeed)
	if err != nil {
		return nil, err
	}

	tab := report.NewTable(
		fmt.Sprintf("R3: delegation churn on K_%d, p in (0.30, 0.49), alpha=%.2f (P^D=%s)", n, alpha, report.F(pd)),
		"period", "delegators", "P^M (incremental)", "P^M (scratch)", "bit-equal")
	mismatches, leaks := 0, 0
	var pmAcc float64
	for _, st := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := &core.DelegationGraph{Delegate: append([]int(nil), st.Delegation...)}
		res, err := d.Resolve()
		if err != nil {
			return nil, err
		}
		sinkWeight := 0
		for _, v := range res.Sinks {
			sinkWeight += res.Weight[v]
		}
		if res.TotalWeight != n || sinkWeight != n || len(res.Sinks)+res.Delegators != n {
			leaks++
		}
		scratch, err := election.ResolutionProbabilityExact(in, res)
		if err != nil {
			return nil, err
		}
		equal := math.Float64bits(st.PM) == math.Float64bits(scratch)
		if !equal {
			mismatches++
		}
		pmAcc += st.PM
		tab.AddRow(report.Itoa(st.Period), report.Itoa(st.Delegators),
			report.F(st.PM), report.F(scratch), boolCell(equal))
	}

	// Re-run the whole churn: equal seeds must reproduce every step.
	again, err := dynamics.Churn(ctx, in, opts, churnSeed)
	if err != nil {
		return nil, err
	}
	deterministic := len(again) == len(steps)
	for i := 0; deterministic && i < len(steps); i++ {
		if math.Float64bits(again[i].PM) != math.Float64bits(steps[i].PM) {
			deterministic = false
		}
	}
	meanPM := pmAcc / float64(len(steps))
	lastDelegators := steps[len(steps)-1].Delegators

	checks := []Check{
		check("incremental P^M is bit-identical to from-scratch scoring at every period",
			mismatches == 0, "%d/%d periods mismatched", mismatches, len(steps)),
		check("every churned period conserves weight: the sinks carry all n votes, and each voter is a sink or a delegator",
			leaks == 0, "%d/%d periods leaked", leaks, len(steps)),
		check("equal seeds reproduce the churn trajectory bit-for-bit",
			deterministic, "replayed %d periods", len(again)),
		check("churn sustains a delegating population",
			lastDelegators > 0, "final period has %d delegators", lastDelegators),
		check("below mean 1/2, churned delegation beats direct voting on average (variance thesis)",
			meanPM > pd, "mean churned P^M %s vs P^D %s", report.F(meanPM), report.F(pd)),
	}
	return &Outcome{Tables: []*report.Table{tab}, Checks: checks}, nil
}

// runR4 evolves the electorate itself. Part one grows a Barabasi-Albert
// graph one add-voter delta at a time through a chained election.Plan,
// comparing the chained exact P^D against a from-scratch instance at every
// size. Part two replays a partial-participation track record
// (history.Replay): each period's sparse competency deltas advance the
// surrogate plan incrementally, and the recorded evaluation is re-run on a
// fresh plan built from the period's competency snapshot.
func runR4(ctx context.Context, cfg Config) (*Outcome, error) {
	const m0, mEdges = 5, 3
	target := cfg.scaleInt(160, 40)
	growSeed := rng.New(rng.Derive(cfg.Seed, "R4", "growth"))

	// Seed graph: K_{m0} as an explicit graph so add-voter deltas can
	// carry preferential-attachment edge lists.
	var seedEdges [][2]int
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			seedEdges = append(seedEdges, [2]int{u, v})
		}
	}
	g0, err := graph.NewGraphFromEdges(m0, seedEdges)
	if err != nil {
		return nil, err
	}
	p0 := make([]float64, m0)
	for i := range p0 {
		p0[i] = 0.30 + 0.19*growSeed.Float64()
	}
	in0, err := core.NewInstance(g0, p0)
	if err != nil {
		return nil, err
	}
	plan, err := election.NewPlan(in0, election.Options{Replications: 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}

	growth := report.NewTable(
		fmt.Sprintf("R4a: Barabasi-Albert growth %d -> %d voters via add-voter deltas (m=%d)", m0, target, mEdges),
		"n", "P^D (chained)", "P^D (scratch)", "bit-equal")
	degree := make([]int, m0, target)
	for i := range degree {
		degree[i] = m0 - 1
	}
	totalDeg := m0 * (m0 - 1)
	growMismatches := 0
	var pdFirst, pdLast float64
	direct := mechanism.Direct{}
	for n := m0; n < target; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Preferential attachment: mEdges distinct targets, degree-biased.
		targets := make([]int, 0, mEdges)
		for len(targets) < mEdges {
			r := growSeed.IntN(totalDeg)
			v := 0
			for r >= degree[v] {
				r -= degree[v]
				v++
			}
			dup := false
			for _, u := range targets {
				if u == v {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, v)
			}
		}
		p := 0.30 + 0.19*growSeed.Float64()
		plan, err = plan.ApplyDelta(election.Delta{Kind: election.DeltaAddVoter, P: p, Edges: targets})
		if err != nil {
			return nil, err
		}
		for _, v := range targets {
			degree[v]++
		}
		degree = append(degree, mEdges)
		totalDeg += 2 * mEdges

		// An evaluation of the chained plan at this size computes its P^D.
		results, err := election.EvaluateSweep(ctx, plan, []election.SweepPoint{
			{Mechanism: direct, Seed: rng.Derive(cfg.Seed, "R4", "growth-eval", report.Itoa(n))}})
		if err != nil {
			return nil, err
		}
		chained := results[0].PD
		// The scratch P^D comes from a rebuilt instance on a point that
		// bypasses the P^D memo, which holds the chained value under the
		// same content, so the check compares against a kernel run.
		fresh, err := core.NewInstance(plan.Instance().Topology(), plan.Instance().Competencies())
		if err != nil {
			return nil, err
		}
		fplan, err := election.NewPlan(fresh, election.Options{Replications: 1, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		fresults, err := election.EvaluateSweep(ctx, fplan, []election.SweepPoint{
			{Mechanism: direct, Seed: rng.Derive(cfg.Seed, "R4", "growth-eval", report.Itoa(n)), DisableResolutionCache: true}})
		if err != nil {
			return nil, err
		}
		scratch := fresults[0].PD
		equal := math.Float64bits(chained) == math.Float64bits(scratch)
		if !equal {
			growMismatches++
		}
		newN := plan.Instance().N()
		if newN == m0+1 {
			pdFirst = chained
		}
		pdLast = chained
		if (newN-m0)%16 == 0 || newN == target {
			growth.AddRow(report.Itoa(newN), report.F(chained), report.F(scratch), boolCell(equal))
		}
	}
	edges := plan.Instance().Topology().(*graph.Graph).M()
	wantEdges := m0*(m0-1)/2 + mEdges*(target-m0)

	// Part two: track-record replay with sparse competency deltas.
	n2 := cfg.scaleInt(80, 24)
	reps := cfg.scaleInt(16, 8)
	replayPeriods := cfg.scaleInt(10, 4)
	s2 := rng.New(rng.Derive(cfg.Seed, "R4", "replay-instance"))
	in2, err := uniformInstance(graph.NewComplete(n2), 0.30, 0.60, s2)
	if err != nil {
		return nil, err
	}
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	ropts := history.ReplayOptions{
		Periods: replayPeriods, IssuesPerPeriod: 6, Participation: 0.5,
		Alpha: 0.05, Replications: reps, Workers: cfg.Workers,
	}
	rsteps, err := history.Replay(ctx, in2, mech, ropts, rng.Derive(cfg.Seed, "R4", "replay"))
	if err != nil {
		return nil, err
	}
	replay := report.NewTable(
		fmt.Sprintf("R4b: track-record replay on K_%d (%d issues/period, participation 0.5)", n2, ropts.IssuesPerPeriod),
		"period", "surrogate P^D", "surrogate P^M", "truth P^M", "misdeleg.", "bit-equal")
	replayMismatches := 0
	for _, st := range rsteps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fresh, err := core.NewInstance(in2.Topology(), st.Competencies)
		if err != nil {
			return nil, err
		}
		fplan, err := election.NewPlan(fresh, election.Options{Replications: reps, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		// Bypass the memos: the surrogate's P^D is memoized under this
		// period's competency content.
		results, err := election.EvaluateSweep(ctx, fplan, []election.SweepPoint{
			{Mechanism: mech, Seed: st.EvalSeed, DisableResolutionCache: true}})
		if err != nil {
			return nil, err
		}
		equal := math.Float64bits(results[0].PD) == math.Float64bits(st.SurrogatePD) &&
			math.Float64bits(results[0].PM) == math.Float64bits(st.SurrogatePM)
		if !equal {
			replayMismatches++
		}
		replay.AddRow(report.Itoa(st.Period), report.F(st.SurrogatePD), report.F(st.SurrogatePM),
			report.F(st.TruthPM), report.F(st.Misdelegation), boolCell(equal))
	}
	firstMis := rsteps[0].Misdelegation
	lastMis := rsteps[len(rsteps)-1].Misdelegation

	checks := []Check{
		check("chained add-voter P^D is bit-identical to a from-scratch instance at every size",
			growMismatches == 0, "%d/%d sizes mismatched", growMismatches, target-m0),
		check("growth attaches m edges per arriving voter",
			edges == wantEdges, "%d edges at n=%d, want %d", edges, target, wantEdges),
		check("below mean 1/2, direct voting decays as the electorate grows",
			pdLast < pdFirst, "P^D %s at n=%d -> %s at n=%d",
			report.F(pdFirst), m0+1, report.F(pdLast), target),
		check("delta-chained surrogate evaluations are bit-identical to fresh plans at every period",
			replayMismatches == 0, "%d/%d periods mismatched", replayMismatches, len(rsteps)),
		check("misdelegation does not blow up as the record accumulates",
			lastMis <= firstMis+0.10, "misdelegation %s -> %s", report.F(firstMis), report.F(lastMis)),
	}
	return &Outcome{Tables: []*report.Table{growth, replay}, Checks: checks, Replications: reps}, nil
}

// boolCell renders a yes/no table cell.
func boolCell(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
