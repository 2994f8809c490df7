package core

import (
	"fmt"
)

// NoDelegate marks a voter that votes directly in a DelegationGraph.
const NoDelegate = -1

// DelegationGraph is one realized output of a delegation mechanism: each
// voter either delegates to exactly one other voter or votes directly.
// Voters may additionally abstain (Section 6 extension); the model only
// permits abstention for voters that could delegate, and an abstaining
// voter contributes no weight anywhere.
type DelegationGraph struct {
	// Delegate[i] is the voter i delegates to, or NoDelegate.
	Delegate []int
	// Abstained[i] reports whether voter i abstained. Nil means nobody
	// abstained.
	Abstained []bool
}

// NewDelegationGraph returns a delegation graph on n voters in which every
// voter votes directly.
func NewDelegationGraph(n int) *DelegationGraph {
	d := &DelegationGraph{Delegate: make([]int, n)}
	for i := range d.Delegate {
		d.Delegate[i] = NoDelegate
	}
	return d
}

// N returns the number of voters.
func (d *DelegationGraph) N() int { return len(d.Delegate) }

// SetDelegate records that voter i delegates to voter j. It returns an
// error if either index is out of range or i == j (self-delegation is
// represented as NoDelegate).
func (d *DelegationGraph) SetDelegate(i, j int) error {
	n := len(d.Delegate)
	if i < 0 || i >= n || j < 0 || j >= n {
		return fmt.Errorf("%w: edge (%d,%d) out of range [0,%d)", ErrInvalidDelegation, i, j, n)
	}
	if i == j {
		return fmt.Errorf("%w: self-delegation at voter %d", ErrInvalidDelegation, i)
	}
	d.Delegate[i] = j
	return nil
}

// SetAbstained marks voter i as abstaining. Abstention is only valid for
// voters that delegate (checked at Resolve time).
func (d *DelegationGraph) SetAbstained(i int) {
	if d.Abstained == nil {
		d.Abstained = make([]bool, len(d.Delegate))
	}
	d.Abstained[i] = true
}

// NumDelegators counts voters with a delegation edge (including abstainers,
// who by definition could have delegated).
func (d *DelegationGraph) NumDelegators() int {
	count := 0
	for i, j := range d.Delegate {
		if j != NoDelegate {
			count++
		} else if d.abstained(i) {
			count++
		}
	}
	return count
}

func (d *DelegationGraph) abstained(i int) bool {
	return d.Abstained != nil && d.Abstained[i]
}

// Resolution is the outcome of following every delegation chain to its
// sink.
type Resolution struct {
	// SinkOf[i] is the sink voter whose vote represents voter i, or
	// NoDelegate if voter i abstained.
	SinkOf []int
	// Sinks lists the distinct sinks in ascending order.
	Sinks []int
	// Weight[s] is the number of votes sink s casts (including its own);
	// zero for non-sinks.
	Weight []int
	// MaxWeight is the largest sink weight (the Lemma 5 quantity).
	MaxWeight int
	// TotalWeight is the number of non-abstaining voters.
	TotalWeight int
	// LongestChain is the maximum number of delegation hops from any voter
	// to its sink (0 when everybody votes directly).
	LongestChain int
	// Delegators is the number of voters that delegated or abstained.
	Delegators int
}

// Resolve follows all delegation chains, verifying acyclicity. Mechanisms
// that delegate only into approval sets with alpha > 0 always produce
// acyclic graphs (the paper's observation in Section 2.2); Resolve rejects
// anything else with ErrCyclicDelegation.
func (d *DelegationGraph) Resolve() (*Resolution, error) {
	return d.ResolveWithWeights(nil)
}

// ResolveWithWeights resolves the delegation graph with non-uniform initial
// voting power (e.g. token balances in DAO governance): voter i contributes
// initial[i] votes to its sink. A nil slice means one vote per voter
// (the paper's model). Initial weights must be non-negative.
func (d *DelegationGraph) ResolveWithWeights(initial []int) (*Resolution, error) {
	return new(Resolver).ResolveWithWeights(d, initial, nil)
}

// Resolver resolves delegation graphs into reusable scratch, so hot loops
// (one resolution per replication) allocate nothing once the scratch has
// grown to their size. The returned Resolution aliases the Resolver's
// buffers: it is valid only until the next call on the same Resolver, and a
// Resolver must not be shared between goroutines. Resolution values are
// identical to DelegationGraph.Resolve's, whatever the visiting order.
type Resolver struct {
	res Resolution
	// depth[v] is v's hop count to its sink plus one once v is resolved,
	// 0 while v is unreached (so clear resets it) and onChain while a chase
	// is following v's chain.
	depth []int32
	// dirty marks Weight as holding partial writes from an errored call;
	// clean calls zero only their own sinks' entries on the next resolve.
	dirty bool
}

// onChain marks, in Resolver.depth, a voter whose chain is being chased.
const onChain = -1

// Resolve is ResolveWithWeights with one vote per voter.
func (r *Resolver) Resolve(d *DelegationGraph, order []int) (*Resolution, error) {
	return r.ResolveWithWeights(d, nil, order)
}

// ResolveWithWeights resolves d into the Resolver's scratch; see
// DelegationGraph.ResolveWithWeights for the semantics. order is the order
// the voters are visited in: nil visits them by id, and a permutation of the
// voter ids is visited from its last entry down. Each visit of a voter whose
// delegate is already resolved is one lookup, so a caller holding an
// instance passes its CompetencyOrder: Algorithm 1 delegates only to a
// voter at least alpha more competent, so the most competent voters are
// visited first and every chain is resolved from its sink. An edge against
// the order (an alpha = 0 tie, a hand-made profile, a fault repair) is
// followed down its chain instead. The Resolution does not depend on the
// order, and neither does the error: a cycle met out of id order is
// resolved again by id, so the error names the voter the id-order visit
// meets first.
func (r *Resolver) ResolveWithWeights(d *DelegationGraph, initial, order []int) (*Resolution, error) {
	n := len(d.Delegate)
	if initial != nil {
		if len(initial) != n {
			return nil, fmt.Errorf("%w: %d initial weights for %d voters", ErrInvalidDelegation, len(initial), n)
		}
		for i, w := range initial {
			if w < 0 {
				return nil, fmt.Errorf("%w: negative initial weight %d for voter %d", ErrInvalidDelegation, w, i)
			}
		}
	}
	if order != nil && len(order) != n {
		return nil, fmt.Errorf("%w: visiting order of %d voters for %d", ErrInvalidDelegation, len(order), n)
	}
	res := r.reset(n)
	cycle := r.walk(d, initial, order)
	if cycle >= 0 && order != nil {
		res = r.reset(n)
		cycle = r.walk(d, initial, nil)
	}
	if cycle >= 0 {
		return nil, fmt.Errorf("%w: cycle through voter %d", ErrCyclicDelegation, cycle)
	}
	// Abstainers were resolved like delegators so that chains pass through
	// them; they cast nothing and have no sink.
	if d.Abstained != nil {
		for i := range n {
			if !d.Abstained[i] {
				continue
			}
			if d.Delegate[i] == NoDelegate {
				return nil, fmt.Errorf("%w: voter %d abstained without a delegation option", ErrInvalidDelegation, i)
			}
			res.SinkOf[i] = NoDelegate
		}
	}
	// The sinks are the direct voters, none of them abstained, collected by
	// id so they ascend; everyone else delegated or abstained.
	for i, j := range d.Delegate {
		if j == NoDelegate {
			res.Sinks = append(res.Sinks, i)
			res.MaxWeight = max(res.MaxWeight, res.Weight[i])
		}
	}
	res.Delegators = n - len(res.Sinks)
	r.dirty = false
	return res, nil
}

// reset sizes the scratch for n voters and clears it for a resolve: the
// depths, the counts, and the Weight entries the previous call wrote.
func (r *Resolver) reset(n int) *Resolution {
	res := &r.res
	if cap(res.SinkOf) < n {
		res.SinkOf = make([]int, n)
		res.Weight = make([]int, n) // fresh, so already zero
		res.Sinks = make([]int, 0, n)
		r.depth = make([]int32, n)
		r.dirty = false
	}
	// After a clean resolve the only nonzero Weight entries are that call's
	// sinks, so zero those instead of the whole vector; an errored call
	// leaves r.dirty set and forces the full wipe. Zeroing runs over the
	// full capacity because the previous call may have covered more voters.
	if wfull := res.Weight[:cap(res.Weight)]; r.dirty {
		clear(wfull)
	} else {
		for _, v := range res.Sinks {
			wfull[v] = 0
		}
	}
	r.dirty = true
	res.SinkOf = res.SinkOf[:n]
	res.Weight = res.Weight[:n]
	res.Sinks = res.Sinks[:0]
	res.MaxWeight, res.TotalWeight, res.LongestChain, res.Delegators = 0, 0, 0, 0
	clear(r.depth[:n])
	return res
}

// walk visits every voter of d, by id when order is nil and otherwise order
// from its last entry down, resolves it (one lookup when its delegate is
// resolved, a chase otherwise) and credits its vote to its sink. It sets
// SinkOf, Weight, TotalWeight and LongestChain, and returns the voter a
// cycle runs through, or -1.
//
//lint:hotpath
func (r *Resolver) walk(d *DelegationGraph, initial, order []int) int {
	delegate, abstained := d.Delegate, d.Abstained
	n := len(delegate)
	res := &r.res
	sinkOf, weight, depth := res.SinkOf[:n], res.Weight[:n], r.depth[:n]
	total, longest := 0, int32(1)
	for k := range n {
		v := k
		if order != nil {
			v = order[n-1-k]
		}
		dv := depth[v]
		if dv == 0 {
			switch j := delegate[v]; {
			case j == NoDelegate:
				dv, sinkOf[v] = 1, v
			case depth[j] > 0:
				dv, sinkOf[v] = depth[j]+1, sinkOf[j]
			default:
				var cycle int
				if dv, cycle = chase(delegate, sinkOf, depth, v); cycle >= 0 {
					return cycle
				}
			}
			depth[v] = dv
		}
		if abstained != nil && abstained[v] {
			continue
		}
		w := 1
		if initial != nil {
			w = initial[v]
		}
		weight[sinkOf[v]] += w
		total += w
		longest = max(longest, dv)
	}
	res.TotalWeight, res.LongestChain = total, int(longest-1)
	return -1
}

// chase resolves v, whose delegate is not resolved yet, with every
// unresolved voter on its chain, and returns v's depth entry. A first pass
// follows the chain to a resolved or direct voter, marking each voter it
// leaves onChain; a second pass from v sets their depths and sinks, so no
// stack is kept. If the chain meets a voter it has marked, chase returns
// that voter as the cycle's, and leaves the marks.
func chase(delegate, sinkOf []int, depth []int32, v int) (dv int32, cycle int) {
	hops := int32(0)
	u := v
	for depth[u] == 0 {
		j := delegate[u]
		if j == NoDelegate {
			depth[u], sinkOf[u] = 1, u
			break
		}
		depth[u] = onChain
		hops++
		if u = j; depth[u] == onChain {
			return 0, u
		}
	}
	base, sink := depth[u], sinkOf[u]
	for u = v; hops > 0; hops-- {
		depth[u], sinkOf[u] = base+hops, sink
		u = delegate[u]
	}
	return depth[v], -1
}

// ValidateLocal checks that every delegation edge of d is local (goes to a
// neighbor in the instance topology) and approval-consistent at margin
// alpha. It is used to reject adversarial mechanisms in tests and in the
// LOCAL simulator.
func (d *DelegationGraph) ValidateLocal(in *Instance, alpha float64) error {
	if len(d.Delegate) != in.N() {
		return fmt.Errorf("%w: delegation graph size %d vs instance %d", ErrInvalidDelegation, len(d.Delegate), in.N())
	}
	for i, j := range d.Delegate {
		if j == NoDelegate {
			continue
		}
		if !in.Topology().HasEdge(i, j) {
			return fmt.Errorf("%w: voter %d delegated to non-neighbor %d", ErrInvalidDelegation, i, j)
		}
		if !in.Approves(i, j, alpha) {
			return fmt.Errorf("%w: voter %d delegated to unapproved voter %d", ErrInvalidDelegation, i, j)
		}
	}
	return nil
}
