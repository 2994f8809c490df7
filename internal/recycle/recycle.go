// Package recycle implements the paper's recycle sampling model
// (Definition 6): a sequence of dependent Bernoulli-like variables
// x_1, ..., x_n where x_i either draws a fresh Bernoulli(p_i) value (with
// probability z_i) or copies the realized value of a uniformly random
// earlier vertex from a designated prefix. This captures the dependency
// structure of delegated voting: delegating "recycles" the delegate's
// Bernoulli parameter.
//
// Vertices are ordered by decreasing competency, so copying from earlier
// vertices corresponds to delegating to more competent voters.
//
// The partition complexity c (the longest copy chain the structure allows)
// controls the concentration degradation in Lemma 2:
//
//	X_n >= mu(X_n) - c * eps * n / j^{1/3}   w.p. >= 1 - e^{-Omega(j^{1/3})}.
package recycle

import (
	"errors"
	"fmt"
	"math"

	"liquid/internal/core"
	"liquid/internal/prob"
	"liquid/internal/rng"
)

// ErrInvalidGraph reports a malformed recycle sampling graph.
var ErrInvalidGraph = errors.New("recycle: invalid recycle sampling graph")

// Graph is a (j, c, n)-recycle sampling graph in interval form: vertex i
// may copy the value of a uniformly random vertex in [0, UpTo[i]);
// UpTo[i] == 0 means vertex i always draws fresh.
type Graph struct {
	// Z[i] is the probability that vertex i draws a fresh Bernoulli(P[i])
	// value instead of copying. Vertices with UpTo[i] == 0 always draw
	// fresh regardless of Z.
	Z []float64
	// P[i] is vertex i's Bernoulli parameter.
	P []float64
	// UpTo[i] is the exclusive upper bound of the copy prefix; must satisfy
	// 0 <= UpTo[i] <= i.
	UpTo []int
	// J is the declared prefix of always-fresh vertices (the j of the
	// definition), recorded for reporting.
	J int
}

// New validates and returns a recycle sampling graph.
func New(j int, z, p []float64, upTo []int) (*Graph, error) {
	n := len(p)
	if len(z) != n || len(upTo) != n {
		return nil, fmt.Errorf("%w: length mismatch z=%d p=%d upTo=%d", ErrInvalidGraph, len(z), n, len(upTo))
	}
	if j < 0 || j > n {
		return nil, fmt.Errorf("%w: j = %d outside [0, %d]", ErrInvalidGraph, j, n)
	}
	for i := 0; i < n; i++ {
		if p[i] < 0 || p[i] > 1 || math.IsNaN(p[i]) {
			return nil, fmt.Errorf("%w: p[%d] = %v", ErrInvalidGraph, i, p[i])
		}
		if z[i] < 0 || z[i] > 1 || math.IsNaN(z[i]) {
			return nil, fmt.Errorf("%w: z[%d] = %v", ErrInvalidGraph, i, z[i])
		}
		if upTo[i] < 0 || upTo[i] > i {
			return nil, fmt.Errorf("%w: upTo[%d] = %d outside [0, %d]", ErrInvalidGraph, i, upTo[i], i)
		}
		if i < j && upTo[i] != 0 {
			return nil, fmt.Errorf("%w: vertex %d < j = %d must be fresh", ErrInvalidGraph, i, j)
		}
	}
	return &Graph{
		Z:    append([]float64(nil), z...),
		P:    append([]float64(nil), p...),
		UpTo: append([]int(nil), upTo...),
		J:    j,
	}, nil
}

// NewIndependent returns the degenerate recycle graph in which every vertex
// draws fresh: an ordinary independent Bernoulli sequence.
func NewIndependent(p []float64) (*Graph, error) {
	n := len(p)
	z := make([]float64, n)
	for i := range z {
		z[i] = 1
	}
	return New(n, z, p, make([]int, n))
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.P) }

// Realize samples one realization x_1..x_n, processing vertices in
// increasing order as in the definition.
func (g *Graph) Realize(s *rng.Stream) []bool {
	n := g.N()
	x := make([]bool, n)
	for i := 0; i < n; i++ {
		if g.UpTo[i] == 0 || s.Bernoulli(g.Z[i]) {
			x[i] = s.Bernoulli(g.P[i])
		} else {
			x[i] = x[s.IntN(g.UpTo[i])]
		}
	}
	return x
}

// RealizeSum samples one realization and returns X_n = sum_i x_i.
func (g *Graph) RealizeSum(s *rng.Stream) int {
	sum := 0
	for _, v := range g.Realize(s) {
		if v {
			sum++
		}
	}
	return sum
}

// RealizePrefixSums samples one realization and returns all prefix sums
// X_1, ..., X_n (X_i = x_1 + ... + x_i), used by the Lemma 1/2 deviation
// experiments.
func (g *Graph) RealizePrefixSums(s *rng.Stream) []int {
	x := g.Realize(s)
	out := make([]int, len(x))
	sum := 0
	for i, v := range x {
		if v {
			sum++
		}
		out[i] = sum
	}
	return out
}

// Means returns the exact per-vertex expectations E[x_i], computed by the
// linear recursion E[x_i] = z_i p_i + (1 - z_i) * avg_{k < UpTo[i]} E[x_k]
// in O(n) using running prefix sums (UpTo[i] <= i guarantees availability).
func (g *Graph) Means() []float64 {
	n := g.N()
	m := make([]float64, n)
	prefSum := make([]float64, n+1) // prefSum[k] = sum of m[0..k-1]
	for i := 0; i < n; i++ {
		if g.UpTo[i] == 0 {
			m[i] = g.P[i]
		} else {
			avg := prefSum[g.UpTo[i]] / float64(g.UpTo[i])
			m[i] = g.Z[i]*g.P[i] + (1-g.Z[i])*avg
		}
		prefSum[i+1] = prefSum[i] + m[i]
	}
	return m
}

// MeanSum returns mu(X_n) = sum_i E[x_i]. It runs the Means recursion with
// a single prefix-sum array and feeds each term straight into a compensated
// accumulator, returning bit-identical values to prob.Sum(g.Means()) with
// one less O(n) allocation.
func (g *Graph) MeanSum() float64 {
	n := g.N()
	prefSum := make([]float64, n+1)
	var acc prob.Accumulator
	for i := 0; i < n; i++ {
		var m float64
		if g.UpTo[i] == 0 {
			m = g.P[i]
		} else {
			avg := prefSum[g.UpTo[i]] / float64(g.UpTo[i])
			m = g.Z[i]*g.P[i] + (1-g.Z[i])*avg
		}
		prefSum[i+1] = prefSum[i] + m
		acc.Add(m)
	}
	return acc.Sum()
}

// MeanPrefixSums returns mu(X_i) for every prefix.
func (g *Graph) MeanPrefixSums() []float64 {
	m := g.Means()
	out := make([]float64, len(m))
	var s prob.Accumulator
	for i, v := range m {
		s.Add(v)
		out[i] = s.Sum()
	}
	return out
}

// PartitionComplexity returns c: the length (in edges) of the longest
// possible copy chain. A fully independent sequence has complexity 0.
func (g *Graph) PartitionComplexity() int {
	n := g.N()
	depth := make([]int, n)
	best := 0    // max depth overall
	prefMax := 0 // max depth among vertices < current prefix bound
	// prefixMaxes[k] = max depth over vertices [0, k); maintained
	// incrementally since UpTo[i] <= i.
	prefixMaxes := make([]int, n+1)
	for i := 0; i < n; i++ {
		if g.UpTo[i] == 0 || g.Z[i] >= 1 {
			depth[i] = 0
		} else {
			depth[i] = 1 + prefixMaxes[g.UpTo[i]]
		}
		if depth[i] > best {
			best = depth[i]
		}
		if depth[i] > prefMax {
			prefMax = depth[i]
		}
		prefixMaxes[i+1] = prefMax
	}
	return best
}

// Lemma2Bound returns the Lemma 2 lower-bound threshold
// mu(X_n) - c*eps*n/j^{1/3} for the given eps; realizations should stay
// above it with probability 1 - e^{-Omega(j^{1/3})}.
func (g *Graph) Lemma2Bound(eps float64) float64 {
	j := float64(g.J)
	if j < 1 {
		j = 1
	}
	c := float64(g.PartitionComplexity())
	if c < 1 {
		c = 1
	}
	return g.MeanSum() - c*eps*float64(g.N())/math.Cbrt(j)
}

// FromCompleteDelegation builds the recycle sampling graph corresponding to
// Algorithm 1 on a complete-graph instance with approval margin alpha and
// threshold function jn (of the voter count): voters are ordered by
// decreasing competency; a voter whose approval set reaches the threshold
// copies uniformly from its approval prefix (z = 0), everyone else is
// fresh. This is the Lemma 7 correspondence.
func FromCompleteDelegation(in *core.Instance, alpha float64, threshold int) (*Graph, error) {
	if !(alpha >= 0) {
		return nil, fmt.Errorf("%w: negative or NaN alpha", ErrInvalidGraph)
	}
	n := in.N()
	// Descending competency with ascending-id tiebreak, built in O(n) from
	// the instance's ascending (competency, id) order: reverse it, then
	// re-reverse each equal-competency run to restore the ascending ids the
	// old stable sort produced. No sort at all on the setup path of every
	// Lemma 7 row and every A2 alpha point.
	co := in.CompetencyOrder()
	order := make([]int, n)
	for i, v := range co {
		order[n-1-i] = v
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && in.Competency(order[j]) == in.Competency(order[i]) {
			j++
		}
		for l, r := i, j-1; l < r; l, r = l+1, r-1 {
			order[l], order[r] = order[r], order[l]
		}
		i = j
	}

	p := make([]float64, n)
	z := make([]float64, n)
	upTo := make([]int, n)
	if threshold < 1 {
		threshold = 1
	}
	j := n
	for pos, v := range order {
		p[pos] = in.Competency(v)
	}
	// The approval prefix of the voter at pos: all strictly-more-competent-
	// by-alpha voters appear before pos in descending order, so its size is
	// the first k with p[k] < p[pos] + alpha. As pos advances, p[pos] + alpha
	// is non-increasing, so the cut advances monotonically: one two-pointer
	// sweep replaces a binary search per voter.
	cut := 0
	for pos := range order {
		for cut < pos && p[cut] >= p[pos]+alpha {
			cut++
		}
		if cut >= threshold {
			z[pos] = 0
			upTo[pos] = cut
			if pos < j {
				j = pos
			}
		} else {
			z[pos] = 1
			upTo[pos] = 0
		}
	}
	// The arrays above are valid by construction (p from a validated
	// instance, z in {0,1}, upTo = cut <= pos, fresh below j), so skip New's
	// re-validation and defensive copies; this runs once per Lemma 7 row and
	// per A2 alpha point.
	return &Graph{Z: z, P: p, UpTo: upTo, J: min(j, n)}, nil
}
