package fault

import (
	"fmt"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// Policy selects how a delegation graph recovers when nodes become
// unavailable after delegation but before votes are cast.
type Policy int

const (
	// LoseWeight drops every vote unit whose delegation chain passes
	// through an unavailable node — the pessimistic baseline with no
	// recovery at all.
	LoseWeight Policy = iota
	// FallbackToDirect stops each unit at the last available node on its
	// chain, which then votes directly — the election-level counterpart of
	// the convergecast liveness-timeout fallback.
	FallbackToDirect
	// Redelegate rewrites each edge into an unavailable node to a uniformly
	// random approved available neighbour, falling back to a direct vote
	// when no such neighbour exists.
	Redelegate
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LoseWeight:
		return "lose-weight"
	case FallbackToDirect:
		return "fallback-to-direct"
	case Redelegate:
		return "redelegate"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists all recovery policies in presentation order.
func Policies() []Policy { return []Policy{LoseWeight, FallbackToDirect, Redelegate} }

// Recovery is the outcome of applying a recovery policy: the repaired
// delegation graph plus the per-voter weights that survive (0 for lost
// units), ready for core.ResolveWithWeights.
type Recovery struct {
	// Graph is the repaired delegation graph over all n voters; unavailable
	// voters appear as direct voters with zero weight.
	Graph *core.DelegationGraph
	// Weights[v] is voter v's surviving initial weight (0 or 1).
	Weights []int
	// Lost counts vote units destroyed by the faults under this policy.
	Lost int
	// FellBack counts voters whose edge was cut to a direct vote.
	FellBack int
	// Redelegated counts voters whose edge was rewritten to a new
	// delegate (Redelegate policy only).
	Redelegated int
}

// Resolve resolves the repaired graph with the surviving weights.
func (r *Recovery) Resolve() (*core.Resolution, error) {
	return r.Graph.ResolveWithWeights(r.Weights)
}

// ApplyPolicy repairs the delegation graph d on instance in under the given
// fault sets: down[v] marks voter v unavailable (a crashed sink or an
// unreachable delegate — its own unit is always lost), abstain[v] marks a
// voter that withdraws its own unit but still relays delegated weight
// (Section 6 semantics). Either slice may be nil. The redelegation stream s
// is only consulted by the Redelegate policy; alpha is the approval margin
// used to validate redelegation targets.
//
// With alpha > 0 an acyclic d stays acyclic (approval is strictly
// competence-increasing, so redelegation cannot close a cycle) and
// Recovery.Resolve cannot fail. With alpha == 0 tied neighbours approve
// each other: d itself, or a redelegation, may close a cycle, which every
// policy leaves in Graph for Resolve to report as
// core.ErrCyclicDelegation.
func ApplyPolicy(in *core.Instance, d *core.DelegationGraph, down, abstain []bool, policy Policy, alpha float64, s *rng.Stream) (*Recovery, error) {
	n := d.N()
	if in.N() != n {
		return nil, fmt.Errorf("fault: delegation graph size %d vs instance %d", n, in.N())
	}
	if down != nil && len(down) != n {
		return nil, fmt.Errorf("fault: %d down flags for %d voters", len(down), n)
	}
	if abstain != nil && len(abstain) != n {
		return nil, fmt.Errorf("fault: %d abstain flags for %d voters", len(abstain), n)
	}
	isDown := func(v int) bool { return down != nil && down[v] }

	rec := &Recovery{
		Graph:   core.NewDelegationGraph(n),
		Weights: make([]int, n),
	}
	for v := 0; v < n; v++ {
		rec.Weights[v] = 1
		if isDown(v) || (abstain != nil && abstain[v]) {
			rec.Weights[v] = 0
			rec.Lost++
		}
	}

	for v := 0; v < n; v++ {
		target := d.Delegate[v]
		if isDown(v) || target == core.NoDelegate {
			// Unavailable voters relay nothing; available direct voters
			// stay direct.
			continue
		}
		if !isDown(target) {
			if err := rec.Graph.SetDelegate(v, target); err != nil {
				return nil, err
			}
			continue
		}
		switch policy {
		case LoseWeight:
			// The edge leads into a dead chain segment: everything v holds
			// (its own unit and anything delegated to it) is lost. Keeping
			// the edge and zeroing weights below would miss upstream units,
			// so chains into down nodes are zeroed in a second pass.
			if err := rec.Graph.SetDelegate(v, target); err != nil {
				return nil, err
			}
		case FallbackToDirect:
			rec.FellBack++
		case Redelegate:
			u := pickRedelegate(in, v, alpha, isDown, s)
			if u == core.NoDelegate {
				rec.FellBack++
				continue
			}
			if err := rec.Graph.SetDelegate(v, u); err != nil {
				return nil, err
			}
			rec.Redelegated++
		default:
			return nil, fmt.Errorf("fault: unknown policy %v", policy)
		}
	}

	if policy == LoseWeight {
		// Zero out every unit whose chain reaches a down node, by a memoized
		// walk. A walk that comes back to itself has closed a cycle, which
		// holds no down node (down nodes delegate to no one): it stops
		// there, and Resolve reports the cycle as under the other policies.
		dead := make([]int8, n) // 0 unknown, 1 dead, 2 alive, 3 on the walk
		var classify func(v int) int8
		classify = func(v int) int8 {
			if dead[v] == 3 {
				return 2
			}
			if dead[v] != 0 {
				return dead[v]
			}
			if isDown(v) {
				dead[v] = 1
				return 1
			}
			t := rec.Graph.Delegate[v]
			if t == core.NoDelegate {
				dead[v] = 2
				return 2
			}
			dead[v] = 3
			dead[v] = classify(t)
			return dead[v]
		}
		for v := 0; v < n; v++ {
			if classify(v) == 1 && rec.Weights[v] != 0 {
				rec.Weights[v] = 0
				rec.Lost++
			}
		}
	}
	return rec, nil
}

// pickRedelegate returns a uniformly random approved available neighbour of
// v, or core.NoDelegate if none exists.
func pickRedelegate(in *core.Instance, v int, alpha float64, isDown func(int) bool, s *rng.Stream) int {
	var candidates []int
	for _, u := range in.Topology().Neighbors(v) {
		if !isDown(u) && in.Approves(v, u, alpha) {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		return core.NoDelegate
	}
	return candidates[s.IntN(len(candidates))]
}
