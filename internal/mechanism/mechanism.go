// Package mechanism implements the paper's delegation mechanisms: direct
// voting (Example 2), the approval-set-threshold mechanism for complete and
// general graphs (Algorithm 1), the random-d-neighbour mechanism that
// creates Rand(n, d) (Algorithm 2), the half-neighbourhood rule of
// Theorem 5, a concentrating greedy baseline (the Figure 1 failure mode),
// and the Section 6 extensions: weight caps, abstention, and
// multi-delegate weighted majority.
//
// A Mechanism consumes a problem instance and a random stream and emits one
// realized delegation graph; the paper's "probability distribution over
// delegates" is realized by sampling, and election engines average over
// realizations.
package mechanism

import (
	"errors"
	"fmt"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/rng"
)

// ErrInvalidMechanism reports invalid mechanism configuration.
var ErrInvalidMechanism = errors.New("mechanism: invalid mechanism")

// Mechanism is a (randomized) local delegation mechanism.
type Mechanism interface {
	// Name is a short identifier for reports.
	Name() string
	// Apply computes one realization of the mechanism's delegation choices
	// on the instance.
	Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error)
}

// Direct is Example 2: nobody delegates.
type Direct struct{}

var _ Mechanism = Direct{}

// Name implements Mechanism.
func (Direct) Name() string { return "direct" }

// Apply implements Mechanism.
func (Direct) Apply(in *core.Instance, _ *rng.Stream) (*core.DelegationGraph, error) {
	return core.NewDelegationGraph(in.N()), nil
}

// ThresholdFunc maps a voter's neighbourhood size to the approval-set size
// required before the voter delegates. The paper's j(n) / j(d).
type ThresholdFunc func(neighbors int) int

// ConstantThreshold returns j(n) = c.
func ConstantThreshold(c int) ThresholdFunc {
	return func(int) int { return c }
}

// FractionThreshold returns j(n) = ceil(f * n), the "fraction of the
// neighbourhood" thresholds used by Algorithm 2 and Theorem 5.
func FractionThreshold(f float64) ThresholdFunc {
	return func(n int) int {
		if f <= 0 {
			return 0
		}
		v := int(f * float64(n))
		if float64(v) < f*float64(n) {
			v++
		}
		return v
	}
}

// ApprovalThreshold is Algorithm 1 generalized to arbitrary topologies: a
// voter with at least Threshold(#neighbours) approved neighbours delegates
// to a uniformly random approved neighbour, otherwise votes directly.
//
// On a complete topology this is exactly Algorithm 1 (the neighbourhood
// size is n-1 ~ n), with O(1) work per voter.
type ApprovalThreshold struct {
	// Alpha is the approval margin: i approves j iff p_j >= p_i + Alpha.
	Alpha float64
	// Threshold is j(n); nil means 0 (delegate whenever possible).
	Threshold ThresholdFunc
}

var _ Mechanism = ApprovalThreshold{}

// Name implements Mechanism.
func (m ApprovalThreshold) Name() string { return fmt.Sprintf("approval-threshold(α=%g)", m.Alpha) }

// Apply implements Mechanism.
func (m ApprovalThreshold) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	view := in.ApprovalView(m.Alpha)
	if m.Threshold == nil {
		// With no threshold the only requirement is |J(i)| >= 1, which
		// Sample reports itself (consuming no randomness when the set is
		// empty), so every voter draws in one pass.
		d := &core.DelegationGraph{Delegate: make([]int, in.N())}
		view.SampleAll(d.Delegate, s)
		return d, nil
	}
	d := core.NewDelegationGraph(in.N())
	for i := 0; i < in.N(); i++ {
		if view.Count(i) < max(m.Threshold(in.Topology().Degree(i)), 1) {
			continue
		}
		j, ok := view.Sample(i, s)
		if !ok {
			continue
		}
		if err := d.SetDelegate(i, j); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// GreedyBest delegates to the single most competent approved neighbour
// whenever one exists. It is deterministic and concentrates weight on local
// maxima — the behaviour that makes the Figure 1 star lose.
type GreedyBest struct {
	Alpha float64
}

var _ Mechanism = GreedyBest{}

// Name implements Mechanism.
func (m GreedyBest) Name() string { return fmt.Sprintf("greedy-best(α=%g)", m.Alpha) }

// Apply implements Mechanism.
func (m GreedyBest) Apply(in *core.Instance, _ *rng.Stream) (*core.DelegationGraph, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	d := core.NewDelegationGraph(in.N())
	// On K_n the scan counts through the voters, in Neighbors' ascending
	// order, instead of allocating an n-1 list per voter.
	_, complete := in.Topology().(graph.Complete)
	for i := 0; i < in.N(); i++ {
		best := core.NoDelegate
		bestP := in.Competency(i) + m.Alpha
		consider := func(j int) {
			if p := in.Competency(j); p >= bestP && (best == core.NoDelegate || p > in.Competency(best)) {
				best = j
			}
		}
		if complete {
			for j := 0; j < in.N(); j++ {
				if j != i {
					consider(j)
				}
			}
		} else {
			for _, j := range in.Topology().Neighbors(i) {
				consider(j)
			}
		}
		if best != core.NoDelegate {
			if err := d.SetDelegate(i, best); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// HalfNeighborhood is the Theorem 5 mechanism: a voter delegates (to a
// uniformly random approved neighbour) iff at least half of its neighbours
// are approved.
type HalfNeighborhood struct {
	Alpha float64
}

var _ Mechanism = HalfNeighborhood{}

// Name implements Mechanism.
func (m HalfNeighborhood) Name() string { return fmt.Sprintf("half-neighborhood(α=%g)", m.Alpha) }

// Apply implements Mechanism.
func (m HalfNeighborhood) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if !(m.Alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha %v", ErrInvalidMechanism, m.Alpha)
	}
	d := core.NewDelegationGraph(in.N())
	view := in.ApprovalView(m.Alpha)
	for i := 0; i < in.N(); i++ {
		deg := in.Topology().Degree(i)
		if deg == 0 {
			continue
		}
		count := view.Count(i)
		if 2*count < deg || count == 0 {
			continue
		}
		j, ok := view.Sample(i, s)
		if !ok {
			continue
		}
		if err := d.SetDelegate(i, j); err != nil {
			return nil, err
		}
	}
	return d, nil
}
