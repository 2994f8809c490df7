package mechanism

import (
	"fmt"
	"slices"

	"liquid/internal/core"
	"liquid/internal/rng"
)

// WeightCapped wraps a mechanism and enforces the Lemma 5 condition: no
// sink may accumulate weight above MaxWeight. Delegation edges are cut
// (turning the cut voter into a direct voter for its own subtree) until
// every delegation tree has size at most MaxWeight.
//
// The cut strategy is the standard bounded-partition post-order walk: it
// guarantees the cap exactly and removes the minimum number of edges
// greedily (largest subtree first at each overweight node).
type WeightCapped struct {
	Inner     Mechanism
	MaxWeight int
}

var _ Mechanism = WeightCapped{}

// Name implements Mechanism.
func (m WeightCapped) Name() string {
	return fmt.Sprintf("%s|cap(w=%d)", m.Inner.Name(), m.MaxWeight)
}

// Apply implements Mechanism.
func (m WeightCapped) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if m.Inner == nil {
		return nil, fmt.Errorf("%w: WeightCapped requires an inner mechanism", ErrInvalidMechanism)
	}
	if m.MaxWeight < 1 {
		return nil, fmt.Errorf("%w: max weight %d < 1", ErrInvalidMechanism, m.MaxWeight)
	}
	d, err := m.Inner.Apply(in, s)
	if err != nil {
		return nil, err
	}
	if err := CapWeights(d, m.MaxWeight); err != nil {
		return nil, err
	}
	return d, nil
}

// CapWeights cuts delegation edges of d in place until no sink weight
// exceeds maxWeight. Abstaining voters keep their (weightless) delegation
// edges untouched by treating them as zero-size subtrees.
func CapWeights(d *core.DelegationGraph, maxWeight int) error {
	if maxWeight < 1 {
		return fmt.Errorf("%w: max weight %d < 1", ErrInvalidMechanism, maxWeight)
	}
	n := d.N()
	// Children of the delegation forest in CSR form: one flat array plus
	// offsets, instead of n little slices (this sits on the Lemma 5 hot
	// path, where the allocation churn of per-node lists dominated).
	buf := make([]int, 3*n+1)
	childStart, childList, size := buf[:n+1], buf[n+1:2*n+1], buf[2*n+1:]
	for _, j := range d.Delegate {
		if j != core.NoDelegate {
			childStart[j+1]++
		}
	}
	for v := 0; v < n; v++ {
		childStart[v+1] += childStart[v]
	}
	fill := make([]int, n)
	copy(fill, childStart[:n])
	roots := 0
	for i, j := range d.Delegate {
		if j != core.NoDelegate {
			childList[fill[j]] = i
			fill[j]++
		} else {
			roots++
		}
	}
	// Pre-order discovery via an explicit stack from each root (direct
	// voter); reversing it gives children-before-parents.
	order := fill[:0] // reuse: fill's prefix is consumed left to right
	stack := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if d.Delegate[r] != core.NoDelegate { // not a root
			continue
		}
		stack = append(stack[:0], r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			stack = append(stack, childList[childStart[v]:childStart[v+1]]...)
		}
	}
	if len(order) != n {
		return fmt.Errorf("%w: delegation graph contains a cycle", core.ErrCyclicDelegation)
	}
	abst := func(i int) bool { return d.Abstained != nil && d.Abstained[i] }
	var att []int
	// Process in reverse discovery order (children before parents).
	for k := n - 1; k >= 0; k-- {
		v := order[k]
		sz := 1
		if abst(v) {
			sz = 0
		}
		kids := childList[childStart[v]:childStart[v+1]]
		for _, c := range kids {
			if d.Delegate[c] == v { // still attached
				sz += size[c]
			}
		}
		if sz > maxWeight {
			// Cut attached children, largest subtree first.
			att = att[:0]
			for _, c := range kids {
				if d.Delegate[c] == v {
					att = append(att, c)
				}
			}
			slices.SortFunc(att, func(a, b int) int { return size[b] - size[a] })
			for _, c := range att {
				if sz <= maxWeight {
					break
				}
				d.Delegate[c] = core.NoDelegate
				if d.Abstained != nil && d.Abstained[c] {
					// An abstainer that no longer delegates must vote.
					d.Abstained[c] = false
				}
				sz -= size[c]
			}
		}
		size[v] = sz
	}
	return nil
}

// Abstaining wraps a mechanism with the Section 6 abstention model: each
// voter that delegates independently abstains with probability Q instead of
// passing its vote on. Only delegators may abstain, matching the paper's
// restriction that avoids the all-but-one-sink-abstains failure mode.
type Abstaining struct {
	Inner Mechanism
	Q     float64
}

var _ Mechanism = Abstaining{}

// Name implements Mechanism.
func (m Abstaining) Name() string { return fmt.Sprintf("%s|abstain(q=%g)", m.Inner.Name(), m.Q) }

// Apply implements Mechanism.
func (m Abstaining) Apply(in *core.Instance, s *rng.Stream) (*core.DelegationGraph, error) {
	if m.Inner == nil {
		return nil, fmt.Errorf("%w: Abstaining requires an inner mechanism", ErrInvalidMechanism)
	}
	if m.Q < 0 || m.Q > 1 {
		return nil, fmt.Errorf("%w: abstention probability %v not in [0,1]", ErrInvalidMechanism, m.Q)
	}
	d, err := m.Inner.Apply(in, s)
	if err != nil {
		return nil, err
	}
	for i, j := range d.Delegate {
		if j != core.NoDelegate && s.Bernoulli(m.Q) {
			d.SetAbstained(i)
		}
	}
	return d, nil
}

// MultiDelegation is the realized output of a multi-delegate mechanism
// (Section 6, weighted majority vote): each voter either votes directly
// (empty delegate list) or consults a set of approved delegates and votes
// with the majority of their final votes (own Bernoulli draw breaks ties).
type MultiDelegation struct {
	// Delegates[i] lists the voters i consults; empty means direct voting.
	Delegates [][]int
	// Weights[i][k] is the weight voter i assigns to Delegates[i][k]. Nil
	// (or a nil row) means equal weights. Weights must be positive.
	Weights [][]float64
}

// N returns the number of voters.
func (md *MultiDelegation) N() int { return len(md.Delegates) }

// NumDelegators counts voters with at least one delegate.
func (md *MultiDelegation) NumDelegators() int {
	c := 0
	for _, ds := range md.Delegates {
		if len(ds) > 0 {
			c++
		}
	}
	return c
}

// MultiMechanism produces multi-delegate outputs.
type MultiMechanism interface {
	Name() string
	ApplyMulti(in *core.Instance, s *rng.Stream) (*MultiDelegation, error)
}

// MultiDelegate samples up to K distinct approved neighbours per voter.
// A voter with fewer than Threshold(degree) approved neighbours votes
// directly.
type MultiDelegate struct {
	Alpha     float64
	K         int
	Threshold ThresholdFunc
}

var _ MultiMechanism = MultiDelegate{}

// Name implements MultiMechanism.
func (m MultiDelegate) Name() string { return fmt.Sprintf("multi-delegate(α=%g,k=%d)", m.Alpha, m.K) }

// ApplyMulti implements MultiMechanism.
func (m MultiDelegate) ApplyMulti(in *core.Instance, s *rng.Stream) (*MultiDelegation, error) {
	if !(m.Alpha >= 0) || m.K < 1 {
		return nil, fmt.Errorf("%w: MultiDelegate(α=%v, k=%d)", ErrInvalidMechanism, m.Alpha, m.K)
	}
	n := in.N()
	md := &MultiDelegation{Delegates: make([][]int, n)}
	view := in.ApprovalView(m.Alpha)
	for i := 0; i < n; i++ {
		threshold := 1
		if m.Threshold != nil {
			threshold = max(m.Threshold(in.Topology().Degree(i)), 1)
		}
		approved := view.Set(i)
		if len(approved) < threshold {
			continue
		}
		if len(approved) <= m.K {
			md.Delegates[i] = approved
			continue
		}
		idx := s.SampleWithoutReplacement(len(approved), m.K)
		picks := make([]int, 0, m.K)
		for _, k := range idx {
			picks = append(picks, approved[k])
		}
		md.Delegates[i] = picks
	}
	return md, nil
}

// WeightFunc produces the local weights a voter assigns to its k consulted
// delegates, in consultation order (the "arbitrary ranking" of the paper's
// Section 2.2). The returned slice must have length k and positive entries.
type WeightFunc func(k int) []float64

// EqualWeights weighs all delegates equally.
func EqualWeights(k int) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1
	}
	return w
}

// HarmonicWeights weighs the r-th consulted delegate 1/r, a top-heavy
// locally defined weight function.
func HarmonicWeights(k int) []float64 {
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

// WeightedMultiDelegate is the full Section 6 weighted-majority extension:
// each voter consults up to K approved delegates and combines their votes
// with a locally defined weight function over its private ranking.
type WeightedMultiDelegate struct {
	Alpha   float64
	K       int
	Weights WeightFunc
}

var _ MultiMechanism = WeightedMultiDelegate{}

// Name implements MultiMechanism.
func (m WeightedMultiDelegate) Name() string {
	return fmt.Sprintf("weighted-multi-delegate(α=%g,k=%d)", m.Alpha, m.K)
}

// ApplyMulti implements MultiMechanism.
func (m WeightedMultiDelegate) ApplyMulti(in *core.Instance, s *rng.Stream) (*MultiDelegation, error) {
	base := MultiDelegate{Alpha: m.Alpha, K: m.K}
	md, err := base.ApplyMulti(in, s)
	if err != nil {
		return nil, err
	}
	weigh := m.Weights
	if weigh == nil {
		weigh = EqualWeights
	}
	md.Weights = make([][]float64, len(md.Delegates))
	for i, ds := range md.Delegates {
		if len(ds) == 0 {
			continue
		}
		w := weigh(len(ds))
		if len(w) != len(ds) {
			return nil, fmt.Errorf("%w: weight function returned %d weights for %d delegates", ErrInvalidMechanism, len(w), len(ds))
		}
		for _, v := range w {
			if v <= 0 {
				return nil, fmt.Errorf("%w: non-positive delegate weight %v", ErrInvalidMechanism, v)
			}
		}
		md.Weights[i] = w
	}
	return md, nil
}
