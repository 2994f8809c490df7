// Package core implements the paper's voting model (Section 2): problem
// instances G = (V, E, p), approval sets J(i) with margin alpha, graph
// restrictions, delegation graphs with sink/weight resolution, and the
// gain/loss bookkeeping shared by every mechanism and experiment.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"liquid/internal/graph"
	"liquid/internal/rng"
)

// Model errors. They wrap with %w so callers can match with errors.Is.
var (
	// ErrInvalidInstance reports malformed instance construction input.
	ErrInvalidInstance = errors.New("core: invalid instance")
	// ErrCyclicDelegation reports a delegation graph containing a cycle,
	// which only an invalid (non-approval-based) mechanism can produce.
	ErrCyclicDelegation = errors.New("core: cyclic delegation")
	// ErrInvalidDelegation reports a structurally invalid delegation edge.
	ErrInvalidDelegation = errors.New("core: invalid delegation")
)

// Instance is a problem instance G = (V, E, p): a topology on n voters and a
// competency vector p where p[i] is voter i's probability of voting for the
// correct outcome.
type Instance struct {
	top graph.Topology
	p   []float64

	// byCompetency holds voter ids sorted ascending by competency (ties by
	// id), and sortedP their competencies: each voter's approval set on a
	// complete topology is a suffix of it, less the voter itself.
	byCompetency []int
	sortedP      []float64

	// approvalMemo caches, per alpha (keyed by its bits, so a NaN finds
	// its table too), each voter's suffix start in sortedP: the index of the
	// first competency the voter approves. An ApprovalView reads it once per
	// pass over the voters, so the O(n) build amortizes to O(1) a query.
	// Purely an index cache: results never depend on it.
	approvalMemo struct {
		mu sync.Mutex
		m  map[uint64][]int
	}
}

// approvalMemoMaxEntries bounds the per-instance alpha table count; sweeps
// use a handful of alphas, so the bound only guards pathological callers.
const approvalMemoMaxEntries = 64

// approvalSuffixStarts returns the memoized per-voter suffix starts for
// alpha, building the table on first use.
func (in *Instance) approvalSuffixStarts(alpha float64) []int {
	key := math.Float64bits(alpha)
	in.approvalMemo.mu.Lock()
	defer in.approvalMemo.mu.Unlock()
	if lo, ok := in.approvalMemo.m[key]; ok {
		return lo
	}
	// lo[i] = first index whose competency voter i approves. Visiting voters
	// in ascending competency order makes the threshold p_i + alpha
	// nondecreasing, so one two-pointer sweep replaces a binary search per
	// voter. A NaN threshold approves nothing, so its suffixes are empty.
	n := len(in.p)
	lo := make([]int, n)
	cut := 0
	for _, id := range in.byCompetency {
		for cut < n && !approves(in.p[id], in.sortedP[cut], alpha) {
			cut++
		}
		lo[id] = cut
	}
	if in.approvalMemo.m == nil || len(in.approvalMemo.m) >= approvalMemoMaxEntries {
		in.approvalMemo.m = make(map[uint64][]int)
	}
	in.approvalMemo.m[key] = lo
	return lo
}

// NewInstance validates the competency vector against the topology and
// returns the instance. Each p must lie in [0, 1]; a competency of −0 is
// stored as +0, so it ranks with every other zero.
func NewInstance(top graph.Topology, p []float64) (*Instance, error) {
	if top == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrInvalidInstance)
	}
	if len(p) != top.N() {
		return nil, fmt.Errorf("%w: %d competencies for %d voters", ErrInvalidInstance, len(p), top.N())
	}
	ps := make([]float64, len(p))
	for i, v := range p {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: p[%d] = %v not in [0,1]", ErrInvalidInstance, i, v)
		}
		ps[i] = positiveZero(v)
	}
	in := &Instance{top: top, p: ps, byCompetency: sortByBits(ps)}
	in.sortedP = make([]float64, len(ps))
	for i, id := range in.byCompetency {
		in.sortedP[i] = ps[id]
	}
	return in, nil
}

// sortByBits returns the voter ids ascending by (Float64bits(ps[id]), id).
// The bit image preserves float order for validated competencies, which are
// non-negative, not NaN and, once normalised, never −0. Instance
// construction sits on every experiment's setup path and on every served
// request, so this is a measured hot spot.
func sortByBits(ps []float64) []int {
	n := len(ps)
	ids := make([]int, n)
	if n <= 64 {
		// Insertion sort: at this size the radix passes' fixed cost of 256
		// buckets a digit outweighs the comparisons.
		var keys [64]uint64
		for i := range n {
			b, j := math.Float64bits(ps[i]), i
			for ; j > 0 && keys[j-1] > b; j-- {
				keys[j], ids[j] = keys[j-1], ids[j-1]
			}
			keys[j], ids[j] = b, i
		}
		return ids
	}
	// A stable LSD radix sort, 8 bits a pass, from ascending ids, so they
	// stay the tiebreak. One pass over the keys fills all eight digit
	// histograms, and a digit every key shares is skipped: the top byte is
	// 0x3f for every competency in [2^-7, 1).
	for i := range ids {
		ids[i] = i
	}
	tmp := make([]int, n)
	var hist [8][256]int
	for _, v := range ps {
		b := math.Float64bits(v)
		hist[0][byte(b)]++
		hist[1][byte(b>>8)]++
		hist[2][byte(b>>16)]++
		hist[3][byte(b>>24)]++
		hist[4][byte(b>>32)]++
		hist[5][byte(b>>40)]++
		hist[6][byte(b>>48)]++
		hist[7][byte(b>>56)]++
	}
	for d := range hist {
		h := &hist[d]
		if h[byte(math.Float64bits(ps[0])>>(8*d))] == n {
			continue
		}
		sum := 0
		for k, c := range h {
			h[k] = sum
			sum += c
		}
		for _, id := range ids {
			k := byte(math.Float64bits(ps[id]) >> (8 * d))
			tmp[h[k]] = id
			h[k]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}

// positiveZero maps −0 to +0 and returns every other value unchanged.
// Validation accepts −0 (it is not below 0), but its sign bit would rank it
// above every positive competency in the Float64bits order the sorted
// tables use.
func positiveZero(p float64) float64 {
	if p == 0 {
		return 0
	}
	return p
}

// WithCompetency returns a new instance equal to in except that voter v's
// competency is p — the same instance NewInstance(in.Topology(), patched)
// would build, including the (competency-bits, id) order of the derived
// tables, but in O(n) straight-line work instead of a full sort. The
// incremental-evaluation path (election.Plan.ApplyDelta) patches thousands
// of instances per churn sequence, where the construction sort would
// dominate the delta evaluation itself. The receiver is not modified; the
// derived instance shares the topology and, when the competency bits are
// unchanged, the sorted tables (both immutable after construction).
func (in *Instance) WithCompetency(v int, p float64) (*Instance, error) {
	n := len(in.p)
	if v < 0 || v >= n {
		return nil, fmt.Errorf("%w: voter %d out of range [0,%d)", ErrInvalidInstance, v, n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("%w: p[%d] = %v not in [0,1]", ErrInvalidInstance, v, p)
	}
	p = positiveZero(p)
	out := &Instance{top: in.top, p: append([]float64(nil), in.p...)}
	oldBits := math.Float64bits(out.p[v])
	newBits := math.Float64bits(p)
	out.p[v] = p
	if oldBits == newBits {
		out.byCompetency = in.byCompetency
		out.sortedP = in.sortedP
		return out, nil
	}
	// Rebuild the sorted tables by deleting v's old entry and re-inserting
	// at its new rank. Entries are ordered by (Float64bits(p), id) — the
	// exact order NewInstance produces — so the old entry is the slot inside
	// the old-bits run carrying id v, and the new entry precedes the first
	// slot whose (bits, id) exceeds (newBits, v).
	oldIdx := 0
	for in.byCompetency[oldIdx] != v {
		oldIdx++
	}
	out.byCompetency = make([]int, n)
	out.sortedP = make([]float64, n)
	k := 0
	inserted := false
	for i := 0; i < n; i++ {
		if i == oldIdx {
			continue
		}
		b := math.Float64bits(in.sortedP[i])
		id := in.byCompetency[i]
		if !inserted && (b > newBits || (b == newBits && id > v)) {
			out.sortedP[k] = p
			out.byCompetency[k] = v
			k++
			inserted = true
		}
		out.sortedP[k] = in.sortedP[i]
		out.byCompetency[k] = id
		k++
	}
	if !inserted {
		out.sortedP[k] = p
		out.byCompetency[k] = v
	}
	return out, nil
}

// N returns the number of voters.
func (in *Instance) N() int { return len(in.p) }

// Topology returns the underlying voting graph.
func (in *Instance) Topology() graph.Topology { return in.top }

// Competency returns p[i].
func (in *Instance) Competency(i int) float64 { return in.p[i] }

// CompetencyOrder returns voter ids sorted ascending by competency (ties
// by id, fixed at construction). The slice is shared with the instance and
// must not be modified; it lets hot paths obtain p-sorted voter sequences
// in O(n) instead of re-sorting per call.
func (in *Instance) CompetencyOrder() []int { return in.byCompetency }

// Competencies returns a copy of the competency vector.
func (in *Instance) Competencies() []float64 {
	return append([]float64(nil), in.p...)
}

// MeanCompetency returns (1/n) * sum p_i.
func (in *Instance) MeanCompetency() float64 {
	if len(in.p) == 0 {
		return 0
	}
	var s float64
	for _, v := range in.p {
		s += v
	}
	return s / float64(len(in.p))
}

// approves is the approval comparison: a voter of competency pi approves
// one of competency pj at margin alpha when pj >= pi + alpha. A NaN on
// either side approves nobody.
func approves(pi, pj, alpha float64) bool { return pj >= pi+alpha }

// inOwnSuffix is the self rule: on a complete topology the voter of
// competency p lies in its own suffix, which counts and draws leave it out
// of, exactly when p passes the comparison against itself: for every
// alpha <= 0 and for a positive alpha too small to change p.
func inOwnSuffix(p, alpha float64) bool { return approves(p, p, alpha) }

// Approves reports whether voter i approves voter j at margin alpha:
// p_j >= p_i + alpha, with j a neighbor of i and j != i. It is the
// definition ApprovalView's answers agree with.
func (in *Instance) Approves(i, j int, alpha float64) bool {
	return i != j && in.top.HasEdge(i, j) && approves(in.p[i], in.p[j], alpha)
}

// ApprovalView answers the approval queries on J(i), the neighbors i
// approves at a fixed margin alpha: its size, its members and a uniform draw
// from it. Callers build one view per pass over the voters. On complete
// topologies the view holds the memoized suffix starts, so Count and Sample
// are O(1) per voter; elsewhere each query scans Neighbors(i) once.
type ApprovalView struct {
	in    *Instance
	alpha float64
	lo    []int // suffix starts on complete topologies, nil otherwise
}

// ApprovalView returns the approval view of the instance at margin alpha.
func (in *Instance) ApprovalView(alpha float64) ApprovalView {
	v := ApprovalView{in: in, alpha: alpha}
	if _, ok := in.top.(graph.Complete); ok {
		v.lo = in.approvalSuffixStarts(alpha)
	}
	return v
}

// Count returns |J(i)| without materializing the set.
func (v ApprovalView) Count(i int) int {
	p := v.in.p
	if v.lo == nil {
		count := 0
		for _, j := range v.in.top.Neighbors(i) {
			if approves(p[i], p[j], v.alpha) {
				count++
			}
		}
		return count
	}
	count := len(v.lo) - v.lo[i]
	if inOwnSuffix(p[i], v.alpha) {
		count--
	}
	return count
}

// Set returns J(i) in ascending vertex order, nil when it is empty. On
// complete topologies it scans the voters instead of allocating Neighbors'
// n-1 list.
func (v ApprovalView) Set(i int) []int {
	p := v.in.p
	var out []int
	if v.lo == nil {
		for _, j := range v.in.top.Neighbors(i) {
			if approves(p[i], p[j], v.alpha) {
				out = append(out, j)
			}
		}
		return out
	}
	for j, pj := range p {
		if j != i && approves(p[i], pj, v.alpha) {
			out = append(out, j)
		}
	}
	return out
}

// Sample draws a uniformly random member of J(i). When J(i) is empty it
// returns (-1, false) and draws nothing. On complete topologies the draw
// rejects i from its suffix; otherwise it scans the neighborhood once,
// reservoir style, without allocating.
func (v ApprovalView) Sample(i int, s *rng.Stream) (int, bool) {
	in := v.in
	if v.lo == nil {
		count, pick := 0, -1
		for _, j := range in.top.Neighbors(i) {
			if !approves(in.p[i], in.p[j], v.alpha) {
				continue
			}
			count++
			if s.IntN(count) == 0 {
				pick = j
			}
		}
		return pick, count > 0
	}
	if v.Count(i) <= 0 {
		return -1, false
	}
	lo, n := v.lo[i], len(in.byCompetency)
	for {
		if j := in.byCompetency[lo+s.IntN(n-lo)]; j != i {
			return j, true
		}
	}
}

// SampleAll draws every voter's approved delegate into dst, which has one
// entry per voter: dst[i] is what Sample(i, s) returns, or NoDelegate when
// J(i) is empty. Voters draw in id order, so s yields exactly the words,
// and stops where, Sample called voter by voter would.
func (v ApprovalView) SampleAll(dst []int, s *rng.Stream) {
	if v.lo != nil {
		v.sampleComplete(dst, s)
		return
	}
	for i := range dst {
		j, ok := v.Sample(i, s)
		if !ok {
			j = NoDelegate
		}
		dst[i] = j
	}
}

// sampleComplete is SampleAll on a complete topology: Sample for each voter
// in turn, in one loop over the suffix starts.
//
//lint:hotpath
func (v ApprovalView) sampleComplete(dst []int, s *rng.Stream) {
	p, byCompetency, alpha := v.in.p, v.in.byCompetency, v.alpha
	n := len(byCompetency)
	for i, lo := range v.lo[:len(dst)] {
		size := n - lo
		if inOwnSuffix(p[i], alpha) {
			size--
		}
		if size <= 0 {
			dst[i] = NoDelegate
			continue
		}
		j := byCompetency[lo+s.IntN(n-lo)]
		for j == i {
			j = byCompetency[lo+s.IntN(n-lo)]
		}
		dst[i] = j
	}
}

// TopByCompetency returns the voter ids of the k most competent voters,
// most competent first. k is clamped to [0, n].
func (in *Instance) TopByCompetency(k int) []int {
	n := len(in.byCompetency)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, in.byCompetency[n-1-i])
	}
	return out
}
