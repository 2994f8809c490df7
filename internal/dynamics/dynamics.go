// Package dynamics implements rational delegation dynamics — the
// game-theoretic perspective of the liquid-democracy literature the paper
// cites (Bloembergen–Grossi–Lackner; Zhang–Grossi): each voter repeatedly
// best-responds by choosing the action (vote directly, or delegate to an
// approved neighbour) that maximizes the group's probability of deciding
// correctly, holding everyone else fixed.
//
// Because all voters share the same utility (a common-interest game), the
// group probability is an exact potential: every accepted move strictly
// increases it, so round-robin best response converges to a pure Nash
// equilibrium. Starting from all-direct voting, the equilibrium can only
// improve on direct voting — a game-theoretic route to positive gain.
//
// Scoring runs on election.Scenario: each candidate profile differs from
// the current one by one delegation edge, and the scenario scores it
// through the memoized exact kernel, so a candidate whose sink multiset
// was seen before costs one cache probe. Scenario scores are
// bit-identical to ResolutionProbabilityExact, so the accepted-move
// sequence is that of from-scratch scoring.
package dynamics

import (
	"context"
	"errors"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/rng"
)

// ErrInvalidDynamics reports invalid dynamics configuration.
var ErrInvalidDynamics = errors.New("dynamics: invalid configuration")

// Options configures a best-response run.
type Options struct {
	// Alpha is the approval margin restricting each voter's action set.
	Alpha float64
	// MaxSweeps bounds the number of full round-robin passes (default 50).
	MaxSweeps int
	// MinImprovement is the strict-improvement threshold for accepting a
	// move (default 1e-12); it guards against floating-point cycling.
	MinImprovement float64
}

func (o Options) withDefaults() (Options, error) {
	if !(o.Alpha >= 0) {
		return o, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidDynamics, o.Alpha)
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 50
	}
	if o.MinImprovement <= 0 {
		o.MinImprovement = 1e-12
	}
	return o, nil
}

// Trace records a best-response run.
type Trace struct {
	// Converged reports whether a full sweep passed with no accepted move
	// (a pure Nash equilibrium of the common-interest game).
	Converged bool
	// Sweeps is the number of executed round-robin passes.
	Sweeps int
	// Moves is the total number of accepted strategy changes.
	Moves int
	// InitialProb and FinalProb are the group probabilities before (all
	// direct) and at the end.
	InitialProb float64
	FinalProb   float64
	// Delegation is the final strategy profile.
	Delegation *core.DelegationGraph
}

// BestResponse runs round-robin best-response dynamics from all-direct
// voting and returns the trace. The action set of voter i is {direct} plus
// every approved neighbour whose adoption keeps the delegation graph
// acyclic.
func BestResponse(in *core.Instance, opts Options) (*Trace, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty instance", ErrInvalidDynamics)
	}

	plan, err := election.NewPlan(in, election.Options{})
	if err != nil {
		return nil, err
	}
	sc, err := election.NewScenario(plan, core.NewDelegationGraph(n))
	if err != nil {
		return nil, err
	}
	current, err := sc.Score()
	if err != nil {
		return nil, err
	}
	tr := &Trace{InitialProb: current}
	d := sc.Delegation()
	view := in.ApprovalView(opts.Alpha)

	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		tr.Sweeps++
		improvedThisSweep := false
		for i := 0; i < n; i++ {
			bestTarget := d.Delegate[i]
			bestProb := current
			// Candidate: vote directly.
			if d.Delegate[i] != core.NoDelegate {
				if err := sc.SetDelegate(i, core.NoDelegate); err != nil {
					return nil, err
				}
				if p, err := sc.Score(); err != nil {
					return nil, err
				} else if p > bestProb+opts.MinImprovement {
					bestProb, bestTarget = p, core.NoDelegate
				}
			}
			// Candidates: each approved neighbour that keeps acyclicity.
			// createsCycle walks j's chain, which stops at i before reading
			// d.Delegate[i], so the candidate left in place by the previous
			// iteration cannot affect the answer.
			for _, j := range view.Set(i) {
				if createsCycle(d, i, j) {
					continue
				}
				if err := sc.SetDelegate(i, j); err != nil {
					return nil, err
				}
				p, err := sc.Score()
				if err != nil {
					return nil, err
				}
				if p > bestProb+opts.MinImprovement {
					bestProb, bestTarget = p, j
				}
			}
			if err := sc.SetDelegate(i, bestTarget); err != nil {
				return nil, err
			}
			if bestProb > current {
				current = bestProb
				tr.Moves++
				improvedThisSweep = true
			}
		}
		if !improvedThisSweep {
			tr.Converged = true
			break
		}
	}
	tr.FinalProb = current
	// Hand back a copy: the scenario owns its profile.
	tr.Delegation = &core.DelegationGraph{Delegate: append([]int(nil), d.Delegate...)}
	return tr, nil
}

// createsCycle reports whether setting i -> j would close a delegation
// cycle, i.e. whether i lies on j's current chain to its sink.
func createsCycle(d *core.DelegationGraph, i, j int) bool {
	for v := j; v != core.NoDelegate; v = d.Delegate[v] {
		if v == i {
			return true
		}
	}
	return false
}

// ChurnOptions configures a delegation-churn simulation.
type ChurnOptions struct {
	// Alpha is the approval margin restricting move targets.
	Alpha float64
	// Periods is the number of recorded steps (default 20).
	Periods int
	// MovesPerPeriod is the number of random re-delegations attempted per
	// period (default 5).
	MovesPerPeriod int
}

func (o ChurnOptions) withDefaults() (ChurnOptions, error) {
	if !(o.Alpha >= 0) {
		return o, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidDynamics, o.Alpha)
	}
	if o.Periods <= 0 {
		o.Periods = 20
	}
	if o.MovesPerPeriod <= 0 {
		o.MovesPerPeriod = 5
	}
	return o, nil
}

// ChurnStep is one recorded period of a churn run.
type ChurnStep struct {
	// Period is the step index (0-based).
	Period int
	// PM is the exact group probability of the profile after the period's
	// moves.
	PM float64
	// Delegators counts delegating voters after the period.
	Delegators int
	// Delegation snapshots the profile (core.NoDelegate for direct), so a
	// verifier can re-score the step from scratch.
	Delegation []int
}

// Churn simulates sustained delegation churn: each period a few voters
// re-point — to a random approved neighbour when that keeps the graph
// acyclic, otherwise back to direct — and the resulting profile is scored
// through an election.Scenario. It returns one step per period. Cancelling
// ctx aborts between periods with ctx's error.
//
// All randomness derives from seed; equal inputs give bit-identical step
// sequences. Each step's PM is bit-identical to from-scratch
// ResolutionProbabilityExact on the step's Delegation snapshot (the churn
// experiment re-verifies this per step).
func Churn(ctx context.Context, in *core.Instance, opts ChurnOptions, seed uint64) ([]ChurnStep, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := in.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty instance", ErrInvalidDynamics)
	}
	plan, err := election.NewPlan(in, election.Options{})
	if err != nil {
		return nil, err
	}
	sc, err := election.NewScenario(plan, core.NewDelegationGraph(n))
	if err != nil {
		return nil, err
	}
	s := rng.New(seed)
	d := sc.Delegation()
	view := in.ApprovalView(opts.Alpha)
	steps := make([]ChurnStep, 0, opts.Periods)
	for period := 0; period < opts.Periods; period++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for m := 0; m < opts.MovesPerPeriod; m++ {
			i := int(s.IntN(n))
			j, ok := view.Sample(i, s)
			if !ok || createsCycle(d, i, j) {
				j = core.NoDelegate
			}
			if err := sc.SetDelegate(i, j); err != nil {
				return nil, err
			}
		}
		pm, err := sc.Score()
		if err != nil {
			return nil, err
		}
		steps = append(steps, ChurnStep{
			Period:     period,
			PM:         pm,
			Delegators: d.NumDelegators(),
			Delegation: append([]int(nil), d.Delegate...),
		})
	}
	return steps, nil
}
