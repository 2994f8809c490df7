package prob

// DeltaTree is the retained (persistent) form of the convolution engine
// (convolve.go): the same weight-balanced tree Workspace.dc walks
// transiently, kept alive between evaluations so that a small edit to the
// voter multiset recomputes only the merges whose segments changed —
// O(log n) convolutions for a single-leaf edit instead of a full rebuild.
//
// Bit-identity is the design invariant, not an afterthought. The builder
// uses the engine's own split rule, leaf kernel and merge, and every node's
// PMF is a pure function of its segment's (weight, p) contents, because
// every structural decision — the DP-leaf test, the weight-balanced split
// point, the FFT/DP merge crossover — depends only on prefix-weight
// *differences* inside the segment and is therefore invariant under
// shifting the segment left or right. A cached node whose contents did not
// change is consequently the same bytes a from-scratch evaluation would
// produce, and the root PMF equals WeightedMajority.PMFWS on the same voter
// order no matter which subtrees were reused. A Poisson binomial is the
// engine run on unit-weight voters, so one tree serves both the
// weighted-majority and the P^D use.
//
// Update takes the *entire* new voter sequence and discovers reuse itself:
// it computes the longest common prefix and suffix of the old and new
// sequences (exact Float64bits comparison — reuse must never equate values
// whose bit patterns differ) and, while rebuilding top-down, adopts any old
// subtree whose segment lies fully inside the unchanged prefix or suffix.
// Nodes are immutable once built, which makes the structure persistent:
// Clone is O(n) slice copies sharing every node, and an Update on the clone
// never mutates nodes the original still references.
//
// Rebuild-vs-patch cost rule (DESIGN.md §15): when the changed window
// covers half the sequence or more, nearly every merge on the recomputation
// frontier has to run anyway, so Update skips the reuse index entirely and
// rebuilds — same bytes, less bookkeeping. The decision is deterministic
// (a pure function of the two sequences), so per-tree Stats may appear in
// reproduced tables; the telemetry counters mirror them write-only.

import "math"

// deltaNode is one retained tree node: a DP leaf (left == nil) or an FFT/DP
// merge of its two children. Nodes are immutable after construction.
type deltaNode struct {
	span        int       // voters in the segment
	pmf         []float64 // exact PMF of the segment, length = segment weight + 1
	left, right *deltaNode
}

// DeltaTreeStats are deterministic per-tree counters: pure functions of the
// sequence of NewDeltaTree/Update inputs, independent of scheduling, so —
// unlike cache hit rates — they may be rendered into reproduced tables.
type DeltaTreeStats struct {
	// Builds counts from-scratch constructions (NewDeltaTree and Updates
	// that crossed the rebuild threshold also count under Rebuilds).
	Builds uint64
	// Patches counts Updates that went through the reuse index; Rebuilds
	// counts Updates that crossed the cost threshold and rebuilt.
	Patches  uint64
	Rebuilds uint64
	// ReusedNodes counts subtrees adopted unchanged across all Updates;
	// RecomputedLeaves and RecomputedMerges count freshly evaluated nodes.
	ReusedNodes      uint64
	RecomputedLeaves uint64
	RecomputedMerges uint64
}

// DeltaTree retains the D&C evaluation of one voter sequence. The zero
// value is not usable; construct with NewDeltaTree. A DeltaTree is not safe
// for concurrent use.
type DeltaTree struct {
	voters []WeightedVoter
	prev   []WeightedVoter // retired buffer, reused on the next Update
	pw     []int64
	total  int
	root   *deltaNode

	ws Workspace // merge scratch

	stats DeltaTreeStats

	// Update scratch: the retiring root (adoption descends it by span
	// arithmetic), plus the diff window.
	oldRoot        *deltaNode
	reuseP, reuseS int
	shift          int
}

// NewDeltaTree validates voters (weights >= 1, p in [0,1]) and builds the
// retained tree. The slice is copied; the tree evaluates voters in the
// given order, and its PMF is bit-identical to
// Workspace.WeightedMajority(voters).PMFWS on that order. An empty sequence
// is valid and yields the point mass at zero.
func NewDeltaTree(voters []WeightedVoter) (*DeltaTree, error) {
	total, err := validateVoters(voters)
	if err != nil {
		return nil, err
	}
	t := &DeltaTree{}
	t.setVoters(voters, total)
	t.stats.Builds++
	t.root = t.build(0, len(t.voters))
	return t, nil
}

// setVoters installs the new sequence (copying into the retired buffer when
// one is available) and rebuilds the prefix-weight table.
func (t *DeltaTree) setVoters(voters []WeightedVoter, total int) {
	buf := t.prev[:0]
	buf = append(buf, voters...)
	t.prev = t.voters
	t.voters = buf
	t.total = total
	if cap(t.pw) < len(buf)+1 {
		t.pw = make([]int64, len(buf)+1)
	}
	t.pw = t.pw[:len(buf)+1]
	t.pw[0] = 0
	for i, v := range buf {
		t.pw[i+1] = t.pw[i] + int64(v.Weight)
	}
}

// voterBitsEqual compares two voters exactly: weights and the bit patterns
// of their probabilities. Reuse keyed on anything weaker (e.g. float ==,
// which identifies +0 and -0) could adopt a node whose bytes differ from
// what a from-scratch evaluation of the new sequence would compute.
func voterBitsEqual(a, b WeightedVoter) bool {
	return a.Weight == b.Weight && math.Float64bits(a.P) == math.Float64bits(b.P)
}

// Update replaces the tree's voter sequence, reusing every retained subtree
// whose segment is untouched by the edit. The resulting PMF is
// bit-identical to a from-scratch build of the new sequence for every edit
// pattern; only the amount of recomputation varies. voters may alias caller
// scratch — it is copied before the tree adopts it.
func (t *DeltaTree) Update(voters []WeightedVoter) error {
	total, err := validateVoters(voters)
	if err != nil {
		return err
	}
	old := t.voters
	oldRoot := t.root

	// Longest common prefix, then longest common suffix of the remainder.
	p := 0
	for p < len(old) && p < len(voters) && voterBitsEqual(old[p], voters[p]) {
		p++
	}
	s := 0
	for s < len(old)-p && s < len(voters)-p &&
		voterBitsEqual(old[len(old)-1-s], voters[len(voters)-1-s]) {
		s++
	}

	changed := len(voters) - p - s
	patch := oldRoot != nil && 2*changed < len(voters)
	if patch {
		t.stats.Patches++
		cDeltaPatches.Inc()
		t.oldRoot = oldRoot
		t.reuseP, t.reuseS = p, s
		t.shift = len(voters) - len(old)
	} else {
		t.stats.Rebuilds++
		cDeltaRebuilds.Inc()
	}

	t.setVoters(voters, total)
	t.root = t.build(0, len(t.voters))
	t.oldRoot = nil // drop the reference so retired subtrees can be collected
	return nil
}

// descend walks the old tree by span arithmetic to the node covering
// exactly [lo, hi) in old coordinates, or nil if no node aligns with that
// segment. Equivalent to indexing every old node by segment, without the
// per-Update map churn: each adoption costs one O(depth) walk.
func descend(nd *deltaNode, lo, hi int) *deltaNode {
	base := 0
	for nd != nil {
		if base == lo && base+nd.span == hi {
			return nd
		}
		if nd.left == nil {
			return nil
		}
		if mid := base + nd.left.span; hi <= mid {
			nd = nd.left
		} else if lo >= mid {
			nd, base = nd.right, mid
		} else {
			return nil
		}
	}
	return nil
}

// reusable returns the old subtree covering exactly [lo, hi) of the new
// sequence, if the segment lies fully inside the unchanged prefix or
// suffix. Old suffix segments live shift positions to the left.
func (t *DeltaTree) reusable(lo, hi int) *deltaNode {
	if t.oldRoot == nil {
		return nil
	}
	if hi <= t.reuseP {
		return descend(t.oldRoot, lo, hi)
	}
	if lo >= len(t.voters)-t.reuseS {
		return descend(t.oldRoot, lo-t.shift, hi-t.shift)
	}
	return nil
}

// build constructs (or adopts) the node for voters[lo:hi] with the
// engine's split rule, leaf kernel and merge, making exactly the decisions
// Workspace.dc makes on the same segment.
func (t *DeltaTree) build(lo, hi int) *deltaNode {
	if nd := t.reusable(lo, hi); nd != nil {
		t.stats.ReusedNodes++
		cDeltaNodesReused.Inc()
		return nd
	}
	nd := &deltaNode{span: hi - lo, pmf: make([]float64, t.pw[hi]-t.pw[lo]+1)}
	mid, leaf := dcSplit(t.pw, lo, hi)
	if leaf {
		t.stats.RecomputedLeaves++
		dpInto(nd.pmf, t.voters[lo:hi])
		return nd
	}
	nd.left = t.build(lo, mid)
	nd.right = t.build(mid, hi)
	copyClampNonneg(nd.pmf, t.ws.convolve(nd.left.pmf, nd.right.pmf))
	t.stats.RecomputedMerges++
	return nd
}

// Len returns the number of voters in the current sequence.
func (t *DeltaTree) Len() int { return len(t.voters) }

// TotalWeight returns the sum of the current voters' weights.
func (t *DeltaTree) TotalWeight() int { return t.total }

// PMF returns the root PMF (indices 0..TotalWeight). The slice is owned by
// the tree and must not be modified; it remains valid until the tree is
// updated (retained nodes are immutable, so clones and snapshots taken
// before an Update stay intact).
func (t *DeltaTree) PMF() []float64 { return t.root.pmf }

// ProbAbove returns P[total correct weight > threshold], the same clamped
// tail sum WeightedMajority.ProbAboveWS computes — bit-identical to the
// transient evaluator on the same voter order.
func (t *DeltaTree) ProbAbove(threshold int) float64 {
	if threshold < 0 {
		return 1
	}
	if threshold >= t.total {
		return 0
	}
	return clamp01(Sum(t.root.pmf[threshold+1 : t.total+1]))
}

// ProbCorrectDecision returns P[weighted majority decides correctly] with
// ties losing: ProbAbove(TotalWeight/2), matching
// WeightedMajority.ProbCorrectDecisionWS (and, on weight-1 sequences,
// PoissonBinomial.ProbMajorityWS) bit for bit.
func (t *DeltaTree) ProbCorrectDecision() float64 {
	return t.ProbAbove(t.total / 2)
}

// Stats returns the tree's deterministic lifetime counters.
func (t *DeltaTree) Stats() DeltaTreeStats { return t.stats }

// Clone returns a tree sharing every retained node with t. Because nodes
// are immutable, updating either tree never disturbs the other; the clone
// costs two O(n) slice copies and starts with fresh scratch and zeroed
// update stats (Builds reflects the shared initial build).
func (t *DeltaTree) Clone() *DeltaTree {
	c := &DeltaTree{
		voters: append([]WeightedVoter(nil), t.voters...),
		pw:     append([]int64(nil), t.pw...),
		total:  t.total,
		root:   t.root,
	}
	c.stats.Builds = 1
	return c
}

// DeltaUpdateCost prices one retained-tree patch in the cost model's DP
// units: a single-leaf edit recomputes one merge per level of the
// weight-balanced tree, a geometric series dominated by the root merge, so
// two root-sized FFT merges bound it. The serving layer's delta admission
// class budgets with this, in the same units as PoissonBinomialDPCost and
// WeightedMajorityDPCost.
func DeltaUpdateCost(w int) int64 {
	if w <= 0 {
		return 1
	}
	return 2 * fftMergeCost(w+1)
}
