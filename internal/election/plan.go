package election

// The staged evaluation pipeline. Every experiment in the reproduction
// sweeps mechanisms and approval margins over the *same* instance; the
// monolithic EvaluateMechanism used to rebuild all sweep-invariant state at
// every point. The pipeline splits evaluation into:
//
//  1. Plan (NewPlan)      — a per-instance artifact owning everything that
//     does not depend on the sweep point: the exact P^D table, the shared
//     resolution-score cache over canonical (weight, p) multisets, and the
//     instance's approval suffix memos (prewarmable per alpha). The D&C
//     convolution tree is a pure function of a resolution's canonical
//     multiset, so "owning the tree" means owning the score cache: a
//     repeated multiset skips the tree entirely.
//  2. Sweep (EvaluateSweep) — evaluates many SweepPoints against one Plan.
//     Each point derives all randomness from its own Seed exactly as the
//     single-point evaluator always did, so batched results are
//     bit-identical to point-by-point EvaluateMechanism calls, with
//     identical RNG draw sequences.
//  3. Parallel kernels — the one-off exact P^D runs on the fork-join D&C
//     evaluator (prob.PMFParallelWS) with the point's worker budget, since
//     it is computed before the replication pool spins up and would
//     otherwise leave every worker idle. Replication scoring stays
//     sequential per worker; the workers are the parallelism there.
//
// EvaluateMechanism survives as a one-point sweep over a fresh Plan, so no
// caller breaks and the equivalence is structural rather than asserted.

import (
	"context"
	"sync"

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
// functions of the instance.
type Plan struct {
	in   *core.Instance
	opts Options

	// scores memoizes exact resolution scores across every cached sweep
	// point. Values are pure functions of the canonical voter multiset, so
	// sharing across points (or mechanisms) cannot change any result.
	scores *ScoreCache

	// pd memoizes the exact P^D table's majority mass (n <= ExactDirectMaxN
	// only; the Monte-Carlo branch is seed-dependent and stays per-point).
	pdMu  sync.Mutex
	pd    float64
	pdSet bool
}

// NewPlan canonicalises in and returns a Plan carrying opts as the base
// options of every sweep point. Per-point fields of opts (Seed,
// Replications, DisableResolutionCache) become defaults a SweepPoint can
// override.
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
	// DisableResolutionCache bypasses the plan's shared score cache and the
	// P^D memos for this point (see Options.DisableResolutionCache).
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
// never randomness — except for the Result cache-traffic telemetry fields,
// which depend on sharing and scheduling. Cancelling ctx aborts the sweep
// with ctx's error.
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
	if pt.DisableResolutionCache {
		opts.DisableResolutionCache = true
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
	var pd, pdHalfWidth float64
	if certify {
		ci := CertifyDirect(p.in)
		pd, pdHalfWidth = ci.Point, ci.HalfWidth
	} else {
		var err error
		if pd, err = p.directProbability(ctx, opts, rng.New(opts.Seed).DeriveString("direct")); err != nil {
			return nil, err
		}
	}
	outs, err := p.replicate(ctx, pt.Mechanism, pt.Repair, opts, certify)
	if err != nil {
		return nil, err
	}

	var pmSum prob.Summary
	var halfWidths, delegators, sinks, maxWeights, chains prob.Accumulator
	var faults FaultCounts
	result := &Result{Mechanism: pt.Mechanism.Name(), N: p.in.N(), PD: pd, PDHalfWidth: pdHalfWidth}
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
	reps := float64(opts.Replications)
	result.PMHalfWidth = halfWidths.Sum() / reps
	result.MeanDelegators = delegators.Sum() / reps
	result.MeanSinks = sinks.Sum() / reps
	result.MeanMaxWeight = maxWeights.Sum() / reps
	result.MeanLongestChain = chains.Sum() / reps
	result.MeanDown = float64(faults.Down) / reps
	result.MeanLost = float64(faults.Lost) / reps
	result.MeanFellBack = float64(faults.FellBack) / reps
	result.MeanRedelegated = float64(faults.Redelegated) / reps
	if cache := p.scoreCache(opts, certify); cache != nil {
		result.ResolutionCacheHits, result.ResolutionCacheMisses = cache.Stats()
	}
	result.PM = pmSum.Mean()
	result.PMStdErr = pmSum.StdErr()
	result.Gain = result.PM - pd
	lo, hi := pmSum.MeanCI(0.95)
	result.GainLo = lo - pd
	result.GainHi = hi - pd
	return result, nil
}

// replicate runs opts.Replications realizations of mech, each repaired
// when repair is set, on prob.ParallelFor and returns their outcomes in
// replication order. Replication r draws only from stream r+1 of the
// seed's root, so two mechanisms replicated at one seed see the same
// streams: CompareMechanisms pairs them. Cancelling ctx stops the hand-out
// and returns ctx's error.
func (p *Plan) replicate(ctx context.Context, mech mechanism.Mechanism, repair Repair, opts Options, certify bool) ([]repOut, error) {
	// Telemetry: a replication counter, write-only like evaluatePoint's span.
	telemetry.NewCounter("election/replications").Add(uint64(opts.Replications))
	root := rng.New(opts.Seed)
	cache := p.scoreCache(opts, certify)
	outs := make([]repOut, opts.Replications)
	// One workspace and resolver per worker: scratch is reused across the
	// worker's replications and never shared. The score cache is shared —
	// its values are pure functions of their keys, so scheduling cannot
	// change any result, only the hit counts.
	workers := min(opts.Workers, opts.Replications)
	wss := make([]*prob.Workspace, workers)
	rvs := make([]*core.Resolver, workers)
	for w := range wss {
		wss[w], rvs[w] = wsPool.Get().(*prob.Workspace), rvPool.Get().(*core.Resolver)
	}
	err := prob.ParallelFor(ctx, opts.Replications, workers, func(w, r int) {
		// Each replication draws from a stream derived only from (seed, r),
		// so scheduling order cannot change the outcome.
		outs[r] = evaluateReplication(ctx, p.in, mech, repair, opts, certify, root.Derive(uint64(r)+1), wss[w], rvs[w], cache)
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

// scoreCache returns the plan's shared score cache for exact scoring, or
// nil when the point bypasses it or scores by certified intervals.
func (p *Plan) scoreCache(opts Options, certify bool) *ScoreCache {
	if certify || opts.DisableResolutionCache {
		return nil
	}
	return p.scores
}

// directProbability returns the point's P^D. The exact branch
// (n <= ExactDirectMaxN) is seed-free, so cached points share the plan memo
// (and the process-wide instance cache under it); a cache-disabled point
// recomputes the DP from scratch. The Monte-Carlo branch draws from the
// point's "direct" stream and is never memoized — its value is part of the
// point's RNG contract.
func (p *Plan) directProbability(ctx context.Context, opts Options, s *rng.Stream) (float64, error) {
	n := p.in.N()
	if n > ExactDirectMaxN {
		return DirectProbability(ctx, p.in, opts.VoteSamples*4, s)
	}
	if opts.DisableResolutionCache {
		return directProbabilityExactFresh(ctx, p.in, opts.Workers)
	}
	p.pdMu.Lock()
	if p.pdSet {
		v := p.pd
		p.pdMu.Unlock()
		cDirectHits.Inc()
		return v, nil
	}
	p.pdMu.Unlock()
	ws := wsPool.Get().(*prob.Workspace)
	defer wsPool.Put(ws)
	key := pdKey(ws, p.in)
	v, ok := pdCacheGet(key)
	if ok {
		cDirectHits.Inc()
	} else {
		cDirectMisses.Inc()
		var err error
		// The one-off exact table is the natural home for the parallel D&C
		// tree: it runs before the replication pool exists, so the whole
		// worker budget is otherwise idle. Bit-identical to the sequential
		// evaluator for every budget. It borrows its own workspace, so key
		// stays valid.
		v, err = directProbabilityExactFresh(ctx, p.in, opts.Workers)
		if err != nil {
			return 0, err
		}
		pdCachePut(key, v)
	}
	p.pdMu.Lock()
	p.pd, p.pdSet = v, true
	p.pdMu.Unlock()
	return v, nil
}
