// Package election computes the probability that a (delegated) vote decides
// correctly: P^M(G) and P^D(G) from the paper, and the gain
// gain(M, G) = P^M(G) - P^D(G).
//
// Two engines are provided and composed automatically:
//
//   - an exact engine: the weighted-majority distribution of the sinks is
//     computed by dynamic programming (package prob), so the only sampling
//     error left is over the mechanism's own randomness;
//   - a Monte-Carlo engine for instances where the DP is too large.
package election

import (
	"context"
	"errors"
	"runtime"

	"liquid/internal/core"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
)

// ErrNoVoters reports an election over an empty electorate.
var ErrNoVoters = errors.New("election: no voters")

// DefaultExactCostLimit is Options.ExactCostLimit's default, and the limit
// liquidd's admission prices evaluations at.
const DefaultExactCostLimit = 1 << 23

// Options configures gain estimation.
type Options struct {
	// Replications is the number of mechanism realizations to average over.
	// Defaults to 64.
	Replications int
	// VoteSamples is the number of vote draws used when a realization is
	// scored by Monte Carlo instead of the exact DP. Defaults to 2000.
	VoteSamples int
	// ExactCostLimit bounds the DP cost (#sinks x total weight) above which
	// a realization is scored by Monte Carlo. Defaults to
	// DefaultExactCostLimit.
	ExactCostLimit int64
	// Workers bounds parallelism. Defaults to GOMAXPROCS.
	Workers int
	// Seed drives all randomness. Two runs with equal options are
	// bit-identical.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Replications <= 0 {
		o.Replications = 64
	}
	if o.VoteSamples <= 0 {
		o.VoteSamples = 2000
	}
	if o.ExactCostLimit <= 0 {
		o.ExactCostLimit = DefaultExactCostLimit
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result summarizes a mechanism evaluation on one instance.
type Result struct {
	Mechanism string
	N         int

	// PM is the estimated probability that the mechanism decides correctly,
	// averaged over mechanism randomness; PMStdErr is its standard error.
	PM       float64
	PMStdErr float64
	// PD is the probability that direct voting decides correctly.
	PD float64
	// Gain = PM - PD; GainLo/GainHi bound it at 95% confidence (mechanism
	// randomness only; PD is exact or tightly estimated).
	Gain   float64
	GainLo float64
	GainHi float64

	// PDHalfWidth and PMHalfWidth are the certified half-widths of a
	// degraded evaluation (EvaluateSweepCertified): |PD - exact P^D| <=
	// PDHalfWidth, and PMHalfWidth, the mean of the per-replication
	// half-widths, bounds |PM - PM scored exactly on the same realizations|.
	// Zero on the exact sweep.
	PDHalfWidth float64
	PMHalfWidth float64

	// Structural averages over realizations.
	MeanDelegators   float64
	MeanSinks        float64
	MeanMaxWeight    float64
	MaxMaxWeight     int
	MeanLongestChain float64

	// MeanDown, MeanLost, MeanFellBack and MeanRedelegated average a
	// repaired point's FaultCounts over its replications (see Repair);
	// zero without a Repair.
	MeanDown        float64
	MeanLost        float64
	MeanFellBack    float64
	MeanRedelegated float64
}

// ExactDirectMaxN is the largest electorate whose P^D the evaluation paths
// compute exactly. Above it DirectProbability and Plan sample P^D by Monte
// Carlo, so the value is seed-dependent, never memoized or patched, and
// carries no kernel tier.
const ExactDirectMaxN = 4096

// DirectProbability returns P^D(G) for the instance: the probability that a
// strict majority of independent direct votes is correct. Exact for
// n <= ExactDirectMaxN, Monte Carlo (with the given stream and samples)
// above. Cancelling ctx aborts the sampling loop with ctx's error.
func DirectProbability(ctx context.Context, in *core.Instance, samples int, s *rng.Stream) (float64, error) {
	n := in.N()
	if n == 0 {
		return 0, ErrNoVoters
	}
	if n <= ExactDirectMaxN {
		return DirectProbabilityExact(in)
	}
	// Direct voting is the all-direct resolution: its sinks are the voters
	// in ascending order with one vote each, so the one Monte-Carlo sampler
	// draws and decides as a loop over the competencies would.
	res, err := core.NewDelegationGraph(n).Resolve()
	if err != nil {
		return 0, err
	}
	return ResolutionProbabilityMC(ctx, in, res, samples, s)
}

// DirectProbabilityExact returns the exact P^D(G) via the Poisson-binomial
// kernel, sequentially. The first call on a competency multiset pays the
// kernel; repeat calls on any instance with the same competencies hit a
// process-wide memo (sound because the exact branch is seed-free; see
// cache.go).
func DirectProbabilityExact(in *core.Instance) (float64, error) {
	if in.N() == 0 {
		return 0, ErrNoVoters
	}
	return exactDirectProbability(nil, in, true, 1)
}

// CertifyDirect returns P^D's certified normal-tier interval:
// prob.CertifyMajority over the unit-weight moments of the competencies, in
// voter order, at the strict-majority threshold. One O(n) pass, no DP.
func CertifyDirect(in *core.Instance) prob.CertifiedInterval {
	var st prob.SumStats
	for v := 0; v < in.N(); v++ {
		st.Add(1, in.Competency(v))
	}
	return prob.CertifyMajority(&st, float64(in.N()/2))
}

// CertifyResolution returns the certified normal-tier interval for the
// probability that a resolved delegation outcome decides correctly:
// prob.CertifyMajority over the sinks' weighted moments, in sink order, at
// the strict-majority threshold of the total weight. One O(sinks) pass, no
// DP; an empty resolution certifies 0 exactly.
func CertifyResolution(in *core.Instance, res *core.Resolution) prob.CertifiedInterval {
	var st prob.SumStats
	for _, sk := range res.Sinks {
		st.Add(float64(res.Weight[sk]), in.Competency(sk))
	}
	return prob.CertifyMajority(&st, float64(res.TotalWeight/2))
}

// ResolutionProbabilityExact returns the exact probability that the
// resolved delegation outcome decides correctly. Scratch comes from an
// internal pool; callers on a hot path should thread their own workspace
// via ResolutionProbabilityExactCached (a nil cache memoizes nothing).
func ResolutionProbabilityExact(in *core.Instance, res *core.Resolution) (float64, error) {
	ws := wsPool.Get().(*prob.Workspace)
	v, err := ResolutionProbabilityExactCached(in, res, ws, nil)
	wsPool.Put(ws)
	return v, err
}

// ResolutionProbabilityMC estimates the same probability by sampling sink
// votes. Cancelling ctx aborts the sampling loop with ctx's error.
//
// The draw order is a contract: samples one after another, and within a
// sample one s.Bernoulli-equivalent draw per sink with p in (0, 1), in
// sink order. Sinks with p >= 1 add their weight to every sample without
// a draw, and sinks with p <= 0 neither draw nor add.
func ResolutionProbabilityMC(ctx context.Context, in *core.Instance, res *core.Resolution, samples int, s *rng.Stream) (float64, error) {
	if in.N() == 0 {
		return 0, ErrNoVoters
	}
	if samples <= 0 {
		samples = 2000
	}
	if len(res.Sinks) == 0 {
		return 0, nil
	}
	// Classify the sinks once, in sink order: p >= 1 always votes correctly
	// and p <= 0 never, neither with a draw; the others draw on their
	// rng.Threshold.
	sure := 0
	thr := make([]uint64, 0, len(res.Sinks))
	wts := make([]int, 0, len(res.Sinks))
	for _, sk := range res.Sinks {
		switch p := in.Competency(sk); {
		case p >= 1:
			sure += res.Weight[sk]
		case p > 0:
			thr = append(thr, rng.Threshold(p))
			wts = append(wts, res.Weight[sk])
		}
	}
	src := s.Source()
	wts = wts[:len(thr)] // equal lengths drop the draw loop's bounds check
	wins := 0
	for t := 0; t < samples; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		correct := sure
		for j, th := range thr {
			correct += wts[j] & -int((src.Uint64()&(1<<53-1)-th)>>63)
		}
		if 2*correct > res.TotalWeight {
			wins++
		}
	}
	return float64(wins) / float64(samples), nil
}

// resolutionCost is the DP cost estimate used to pick an engine.
func resolutionCost(res *core.Resolution) int64 {
	return int64(len(res.Sinks)) * int64(res.TotalWeight)
}

// repOut is the per-replication result of one mechanism realization.
type repOut struct {
	pm           float64
	halfWidth    float64
	delegators   int
	sinks        int
	maxWeight    int
	longestChain int
	faults       FaultCounts
	err          error
}

// evaluateReplication scores one mechanism realization on its own stream,
// after repair when one is set: exactly (DP, or Monte Carlo above
// opts.ExactCostLimit), or by its certified normal interval when certify
// is set. ws and rv are the worker's private scratch; cache (optional)
// memoizes exact scores across replications and is shared by all workers.
func evaluateReplication(ctx context.Context, in *core.Instance, mech mechanism.Mechanism, repair Repair, opts Options, certify bool, s *rng.Stream, ws *prob.Workspace, rv *core.Resolver, cache *ScoreCache) repOut {
	if err := ctx.Err(); err != nil {
		return repOut{err: err}
	}
	d, err := mech.Apply(in, s.DeriveString("mechanism"))
	if err != nil {
		return repOut{err: err}
	}
	rep := Repaired{Graph: d}
	if repair != nil {
		if rep, err = repair(d, s); err != nil {
			return repOut{err: err}
		}
	}
	res, err := rv.ResolveWithWeights(rep.Graph, rep.Weights, in.CompetencyOrder())
	if err != nil {
		return repOut{err: err}
	}
	var pm, halfWidth float64
	switch {
	case certify:
		ci := CertifyResolution(in, res)
		pm, halfWidth = ci.Point, ci.HalfWidth
	case resolutionCost(res) <= opts.ExactCostLimit:
		pm, err = ResolutionProbabilityExactCached(in, res, ws, cache)
	default:
		pm, err = ResolutionProbabilityMC(ctx, in, res, opts.VoteSamples, s.DeriveString("votes"))
	}
	if err != nil {
		return repOut{err: err}
	}
	return repOut{
		pm:           pm,
		halfWidth:    halfWidth,
		delegators:   res.Delegators,
		sinks:        len(res.Sinks),
		maxWeight:    res.MaxWeight,
		longestChain: res.LongestChain,
		faults:       rep.Faults,
	}
}

// EvaluateMechanism estimates P^M, P^D, and the gain of mech on in.
// Replications run in parallel on independent RNG streams; results are
// deterministic for a fixed Options.Seed regardless of Workers. Cancelling
// ctx stops scheduling new replications and aborts in-flight sampling loops,
// returning ctx's error.
//
// It is a one-point sweep over a fresh Plan (see plan.go): callers that
// evaluate many mechanisms or margins on the same instance should build
// the Plan once and use EvaluateSweep, which shares the per-instance state
// this wrapper rebuilds on every call.
func EvaluateMechanism(ctx context.Context, in *core.Instance, mech mechanism.Mechanism, opts Options) (*Result, error) {
	plan, err := NewPlan(in, opts)
	if err != nil {
		return nil, err
	}
	results, err := EvaluateSweep(ctx, plan, []SweepPoint{{
		Mechanism:    mech,
		Seed:         opts.Seed,
		Replications: opts.Replications,
	}})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ResolutionMoments returns the exact mean and variance of the correct
// weight W = sum_s w_s * Bernoulli(p_s) of a resolved delegation outcome.
// These are the quantities the paper's variance-manipulation argument is
// about: delegation shifts the mean up by >= alpha per delegation and
// inflates the variance by concentrating weight on fewer independent sinks.
func ResolutionMoments(in *core.Instance, res *core.Resolution) (mean, variance float64) {
	var m, v prob.Accumulator
	for _, sk := range res.Sinks {
		w := float64(res.Weight[sk])
		p := in.Competency(sk)
		m.Add(w * p)
		v.Add(w * w * p * (1 - p))
	}
	return m.Sum(), v.Sum()
}
