package election

// The staged evaluation pipeline. Every experiment in the reproduction
// sweeps mechanisms and approval margins over the *same* instance; the
// monolithic EvaluateMechanism used to rebuild all sweep-invariant state at
// every point. The pipeline splits evaluation into:
//
//  1. Plan (NewPlan)      — a per-instance artifact owning everything that
//     does not depend on the sweep point: the shared resolution-score cache
//     over canonical (weight, p) multisets and the instance's approval
//     suffix memos (prewarmable per alpha). The D&C convolution tree is a
//     pure function of a resolution's canonical multiset, so "owning the
//     tree" means owning the score cache: a repeated multiset skips the
//     tree entirely. The exact P^D is memoized process-wide by competency
//     content (cache.go), not by the Plan.
//  2. Sweep (EvaluateSweep) — evaluates many SweepPoints against one Plan.
//     Each point derives all randomness from its own Seed exactly as the
//     single-point evaluator always did, so batched results are
//     bit-identical to point-by-point EvaluateMechanism calls, with
//     identical RNG draw sequences.
//  3. Parallel kernels — the one-off exact P^D runs on the fork-join D&C
//     evaluator (prob.KernelMajority) with the point's worker budget, since
//     it is computed before the replication pool spins up and would
//     otherwise leave every worker idle. Replication scoring stays
//     sequential per worker; the workers are the parallelism there.
//
// EvaluateMechanism survives as a one-point sweep over a fresh Plan, so no
// caller breaks and the equivalence is structural rather than asserted.

import (
	"context"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/telemetry"
)

// Plan is the per-instance stage of the evaluation pipeline: it
// canonicalises one instance and owns the sweep-invariant state shared by
// every point evaluated against it. A Plan is safe for concurrent use; all
// shared state is either immutable or memoized values that are pure
// functions of their keys.
type Plan struct {
	in   *core.Instance
	opts Options

	// scores memoizes exact resolution scores across every cached sweep
	// point. Values are pure functions of the canonical voter multiset, so
	// sharing across points (or mechanisms) cannot change any result.
	scores *ScoreCache
}

// NewPlan canonicalises in and returns a Plan carrying opts as the base
// options of every sweep point. Per-point fields of opts (Seed,
// Replications) become defaults a SweepPoint can override.
func NewPlan(in *core.Instance, opts Options) (*Plan, error) {
	if in.N() == 0 {
		return nil, ErrNoVoters
	}
	return &Plan{in: in, opts: opts.withDefaults(), scores: NewScoreCache()}, nil
}

// Instance returns the instance the plan canonicalises.
func (p *Plan) Instance() *core.Instance { return p.in }

// PrewarmApproval builds the instance's approval suffix memo for each
// alpha, so a sweep's first point at that margin does not pay the memo
// construction inside its replication loop. Purely a warm-up: the memo is
// a deterministic function of the instance and alphas, and mechanisms
// build it on demand anyway.
func (p *Plan) PrewarmApproval(alphas ...float64) {
	for _, alpha := range alphas {
		p.in.ApprovalView(alpha)
	}
}

// SweepPoint is one evaluation against a Plan: a mechanism plus the
// per-point options. Fields left zero inherit the plan's base Options.
type SweepPoint struct {
	// Mechanism is the delegation mechanism to evaluate.
	Mechanism mechanism.Mechanism
	// Seed drives all of the point's randomness, exactly as Options.Seed
	// drives EvaluateMechanism: equal (plan options, point) pairs are
	// bit-identical however the sweep is batched or ordered.
	Seed uint64
	// Replications overrides the plan's base replication count when > 0.
	Replications int
	// DisableResolutionCache turns off, for this point only, both memos of
	// exact values: the plan's ScoreCache and the process-wide P^D memo.
	// The point recomputes every exact DP from scratch even when the plan,
	// an earlier point or an earlier evaluation of the same instance
	// already memoized it, and reads and fills neither memo. Results are
	// bit-identical either way — every exact path scores the canonical
	// sorted voter multiset — so the switch exists only for benchmarking
	// the kernels and for the tests proving that claim.
	DisableResolutionCache bool
	// Repair, when set, transforms each replication's realization before it
	// is resolved and scored (see Repair).
	Repair Repair
}

// Repair is a per-replication transform between a mechanism's realization
// and its resolution, such as internal/fault's injected faults and
// recovery policies. It receives the realized delegation graph and the
// replication's stream, and must draw only from children of that stream
// other than "mechanism" and "votes", which the replication uses itself.
// Every worker calls it, so it must be safe for concurrent use.
type Repair func(d *core.DelegationGraph, s *rng.Stream) (Repaired, error)

// Repaired is what a Repair returns: the graph to resolve, the surviving
// initial weights (nil: one unit each) and the replication's fault
// counters, which the point's Result averages.
type Repaired struct {
	Graph   *core.DelegationGraph
	Weights []int
	Faults  FaultCounts
}

// FaultCounts is one replication's fault footprint: voters down, vote
// units lost, and delegators cut to a direct vote or redelegated.
type FaultCounts struct {
	Down, Lost, FellBack, Redelegated int
}

// EvaluateSweep evaluates points against plan, returning one Result per
// point in input order. Results are bit-identical to calling
// EvaluateMechanism once per point with the plan's base options and the
// point's overrides — batching shares scratch and memoized pure values,
// never randomness. Cancelling ctx aborts the sweep with ctx's error.
func EvaluateSweep(ctx context.Context, plan *Plan, points []SweepPoint) ([]*Result, error) {
	return plan.sweep(ctx, points, false)
}

// EvaluateSweepCertified is EvaluateSweep's degraded form, for budgets that
// cannot afford the exact kernels. Realizations are drawn and resolved
// exactly as EvaluateSweep draws them, in the same replication pool, but
// each is scored by its certified normal interval (CertifyResolution)
// instead of the exact DP, and P^D by CertifyDirect. PM is the mean of the
// per-replication points and PMHalfWidth the mean of their half-widths, so
// PM lies within PMHalfWidth of the PM EvaluateSweep reports for the same
// seed whenever that sweep scores every replication by DP
// (|mean a − mean b| <= mean |a − b|), and PD within PDHalfWidth of the
// exact P^D; the gain's error is bounded by their sum. The structural
// statistics are bit-identical to EvaluateSweep's, and the results to
// themselves for every Workers value. Cancelling ctx aborts the sweep with
// ctx's error.
func EvaluateSweepCertified(ctx context.Context, plan *Plan, points []SweepPoint) ([]*Result, error) {
	return plan.sweep(ctx, points, true)
}

// sweep evaluates points in order, certified or exact.
func (p *Plan) sweep(ctx context.Context, points []SweepPoint, certify bool) ([]*Result, error) {
	results := make([]*Result, len(points))
	for i, pt := range points {
		res, err := p.evaluatePoint(ctx, pt, certify)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// pointOptions resolves a sweep point against the plan's base options.
func (p *Plan) pointOptions(pt SweepPoint) Options {
	opts := p.opts
	opts.Seed = pt.Seed
	if pt.Replications > 0 {
		opts.Replications = pt.Replications
	}
	return opts
}

// evaluatePoint scores one sweep point. The structure — and every RNG
// derivation — is the single-point evaluator's: root stream from the seed,
// "direct" child stream for P^D, one numbered child stream per
// replication. Only where the scratch and memoized pure values come from
// differs. certify swaps the exact scorers for the certified normal ones
// (EvaluateSweepCertified); the realizations are the same either way.
func (p *Plan) evaluatePoint(ctx context.Context, pt SweepPoint, certify bool) (*Result, error) {
	opts := p.pointOptions(pt)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Telemetry: a child span under the engine's per-experiment span (nil
	// and therefore free when no span was installed). Write-only — nothing
	// below reads it back.
	sp := telemetry.SpanFromContext(ctx).Child("evaluate")
	defer sp.End()
	cache := p.scores
	if pt.DisableResolutionCache {
		cache = nil
	}
	var pd, pdHalfWidth float64
	if certify {
		ci := CertifyDirect(p.in)
		pd, pdHalfWidth = ci.Point, ci.HalfWidth
	} else {
		var err error
		if pd, err = p.directProbability(ctx, opts, !pt.DisableResolutionCache, rng.New(opts.Seed).DeriveString("direct")); err != nil {
			return nil, err
		}
	}
	outs, err := p.replicate(ctx, opts, func(s *rng.Stream, ws *prob.Workspace, rv *core.Resolver) repOut {
		return evaluateReplication(ctx, p.in, pt.Mechanism, pt.Repair, opts, certify, s, ws, rv, cache)
	})
	if err != nil {
		return nil, err
	}
	return summarize(&Result{Mechanism: pt.Mechanism.Name(), N: p.in.N(), PD: pd, PDHalfWidth: pdHalfWidth}, outs)
}

// summarize fills result, whose Mechanism, N, PD and PDHalfWidth the caller
// has set, with the averages of a point's replication outcomes, folded in
// replication order. The first failed replication's error is returned
// instead.
func summarize(result *Result, outs []repOut) (*Result, error) {
	var pmSum prob.Summary
	var halfWidths, delegators, sinks, maxWeights, chains prob.Accumulator
	var faults FaultCounts
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		pmSum.Add(o.pm)
		halfWidths.Add(o.halfWidth)
		delegators.Add(float64(o.delegators))
		sinks.Add(float64(o.sinks))
		maxWeights.Add(float64(o.maxWeight))
		chains.Add(float64(o.longestChain))
		if o.maxWeight > result.MaxMaxWeight {
			result.MaxMaxWeight = o.maxWeight
		}
		faults.Down += o.faults.Down
		faults.Lost += o.faults.Lost
		faults.FellBack += o.faults.FellBack
		faults.Redelegated += o.faults.Redelegated
	}
	reps := float64(len(outs))
	result.PMHalfWidth = halfWidths.Sum() / reps
	result.MeanDelegators = delegators.Sum() / reps
	result.MeanSinks = sinks.Sum() / reps
	result.MeanMaxWeight = maxWeights.Sum() / reps
	result.MeanLongestChain = chains.Sum() / reps
	result.MeanDown = float64(faults.Down) / reps
	result.MeanLost = float64(faults.Lost) / reps
	result.MeanFellBack = float64(faults.FellBack) / reps
	result.MeanRedelegated = float64(faults.Redelegated) / reps
	result.PM = pmSum.Mean()
	result.PMStdErr = pmSum.StdErr()
	result.Gain = result.PM - result.PD
	lo, hi := pmSum.MeanCI(0.95)
	result.GainLo = lo - result.PD
	result.GainHi = hi - result.PD
	return result, nil
}

// replicate runs rep once per replication, opts.Replications times, on
// prob.ParallelFor and returns the outcomes in replication order. It is the
// one replication loop: sweep points, paired comparisons and multi-delegate
// evaluations pass their own per-replication scorer. Replication r gets
// stream r+1 of the seed's root, so two scorers replicated at one seed see
// the same streams (CompareMechanisms pairs them), and the worker's own
// workspace and resolver, which are scratch only. Cancelling ctx stops the
// hand-out and returns ctx's error.
func (p *Plan) replicate(ctx context.Context, opts Options, rep func(s *rng.Stream, ws *prob.Workspace, rv *core.Resolver) repOut) ([]repOut, error) {
	// Telemetry: a replication counter, write-only like evaluatePoint's span.
	telemetry.NewCounter("election/replications").Add(uint64(opts.Replications))
	root := rng.New(opts.Seed)
	outs := make([]repOut, opts.Replications)
	// One workspace and resolver per worker: scratch is reused across the
	// worker's replications and never shared. A score cache the scorer
	// shares is fine too — its values are pure functions of their keys, so
	// scheduling cannot change any result, only the hit counts.
	workers := min(opts.Workers, opts.Replications)
	wss := make([]*prob.Workspace, workers)
	rvs := make([]*core.Resolver, workers)
	for w := range wss {
		wss[w], rvs[w] = wsPool.Get().(*prob.Workspace), rvPool.Get().(*core.Resolver)
	}
	err := prob.ParallelFor(ctx, opts.Replications, workers, func(w, r int) {
		// Each replication draws from a stream derived only from (seed, r),
		// so scheduling order cannot change the outcome.
		outs[r] = rep(root.Derive(uint64(r)+1), wss[w], rvs[w])
	})
	for w := range wss {
		wsPool.Put(wss[w])
		rvPool.Put(rvs[w])
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// directProbability returns the point's P^D. The exact branch
// (n <= ExactDirectMaxN) is seed-free and runs the one exact P^D with the
// point's worker budget, through the process-wide memo when cached is set.
// The Monte-Carlo branch draws from the point's "direct" stream and is
// never memoized — its value is part of the point's RNG contract.
func (p *Plan) directProbability(ctx context.Context, opts Options, cached bool, s *rng.Stream) (float64, error) {
	if p.in.N() > ExactDirectMaxN {
		return DirectProbability(ctx, p.in, opts.VoteSamples*4, s)
	}
	// The one-off exact table is the natural home for the parallel D&C
	// tree: it runs before the replication pool exists, so the whole
	// worker budget is otherwise idle.
	return exactDirectProbability(ctx, p.in, cached, opts.Workers)
}
