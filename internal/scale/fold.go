package scale

import (
	"context"
	"math"
	"sync"

	"liquid/internal/prob"
)

// FoldStats are the structural totals of a resolved (sub-)electorate. All
// fields are integer sums or maxes, so merging partials is exactly
// associative and commutative — any merge order gives the same totals.
type FoldStats struct {
	// Sinks counts voters that vote directly (delegation-graph sinks).
	Sinks int
	// Delegators counts voters whose vote flows to another voter.
	Delegators int
	// MaxWeight is the largest resolved sink weight — the quantity whose
	// blowup at scale the S1 experiment measures.
	MaxWeight int
	// LongestChain is the longest delegation chain length.
	LongestChain int
	// WeightSum is the total resolved weight; conservation demands it equal
	// the number of voters folded.
	WeightSum int64
}

// Merge folds o into f.
func (f *FoldStats) Merge(o FoldStats) {
	f.Sinks += o.Sinks
	f.Delegators += o.Delegators
	if o.MaxWeight > f.MaxWeight {
		f.MaxWeight = o.MaxWeight
	}
	if o.LongestChain > f.LongestChain {
		f.LongestChain = o.LongestChain
	}
	f.WeightSum += o.WeightSum
}

// Fold is one worker's chunk-resolution scratch: buffers sized to a chunk,
// reused across every chunk the worker folds, so resolving a 10^6-voter
// electorate holds only ChunkSize-voter state per worker. Not safe for
// concurrent use; give each goroutine its own Fold.
type Fold struct {
	ws     *prob.Workspace
	sink   []int32
	depth  []int32
	weight []int32
	ps     []float64
	voters []prob.WeightedVoter
	// radix is sortByP's ping-pong buffer and hist its per-digit
	// histograms, one row per byte of a key.
	radix []prob.WeightedVoter
	hist  [8][256]int32
}

// NewFold returns an empty fold scratch.
func NewFold() *Fold {
	return &Fold{ws: prob.NewWorkspace()}
}

func (f *Fold) grow(k int) {
	if cap(f.sink) < k {
		f.sink = make([]int32, k)
		f.depth = make([]int32, k)
		f.weight = make([]int32, k)
		f.ps = make([]float64, k)
		f.voters = make([]prob.WeightedVoter, 0, k)
		f.radix = make([]prob.WeightedVoter, k)
	}
	f.sink = f.sink[:k]
	f.depth = f.depth[:k]
	f.weight = f.weight[:k]
	f.ps = f.ps[:k]
}

// ChunkSinks resolves chunk c's delegations in one forward pass (delegation
// is strictly backwards within the chunk, so every voter's sink is known by
// the time it is visited) and returns the resolved sink multiset in the
// canonical (weight, p) order the kernel caches key on: sortByP's radix
// sort ascending by p, then the workspace counting sort ascending by
// weight. Both passes are stable and sinks that tie on weight and p are
// indistinguishable, so the order is a function of the multiset alone. The
// returned slice aliases fold scratch and is invalidated by the next call
// on f.
func (f *Fold) ChunkSinks(s *StreamInstance, c int) ([]prob.WeightedVoter, FoldStats) {
	lo, hi := s.ChunkBounds(c)
	k := hi - lo
	f.grow(k)
	st := FoldStats{WeightSum: int64(k)}
	for pos := 0; pos < k; pos++ {
		i := lo + pos
		f.ps[pos] = s.Competency(i)
		f.weight[pos] = 0
		if !s.delegates(i, pos) {
			f.sink[pos] = int32(pos)
			f.depth[pos] = 0
			continue
		}
		t := s.targetPos(i, pos)
		f.sink[pos] = f.sink[t]
		f.depth[pos] = f.depth[t] + 1
		st.Delegators++
		if d := int(f.depth[pos]); d > st.LongestChain {
			st.LongestChain = d
		}
	}
	for pos := 0; pos < k; pos++ {
		f.weight[f.sink[pos]]++
	}
	voters := f.voters[:0]
	for pos := 0; pos < k; pos++ {
		if f.sink[pos] != int32(pos) {
			continue
		}
		w := int(f.weight[pos])
		st.Sinks++
		if w > st.MaxWeight {
			st.MaxWeight = w
		}
		voters = append(voters, prob.WeightedVoter{Weight: w, P: f.ps[pos]})
	}
	f.voters = voters
	return f.ws.SortVotersByWeight(f.sortByP(voters), st.MaxWeight), st
}

// sortByP stably sorts v ascending by p without comparisons: an LSD radix
// sort on math.Float64bits(p), one 8-bit digit per pass, with every
// digit's histogram built in a single pass over the keys. A digit that
// every key shares is skipped; on the default [0.25, 0.75) range the top
// byte always is. Bit order is numeric order here: streamed competencies
// are Low + (High−Low)·u with 0 ≤ Low ≤ High ≤ 1 and u ∈ [0, 1), so they
// are finite, never negative and never −0 (Low = −0 gives −0 + (+0) = +0),
// and non-negative IEEE 754 doubles order as their bit patterns do. The
// result is v or f.radix, whichever the last pass wrote.
//
//lint:hotpath
func (f *Fold) sortByP(v []prob.WeightedVoter) []prob.WeightedVoter {
	if len(v) < 2 {
		return v
	}
	hist := &f.hist
	*hist = [8][256]int32{}
	for _, x := range v {
		b := math.Float64bits(x.P)
		hist[0][byte(b)]++
		hist[1][byte(b>>8)]++
		hist[2][byte(b>>16)]++
		hist[3][byte(b>>24)]++
		hist[4][byte(b>>32)]++
		hist[5][byte(b>>40)]++
		hist[6][byte(b>>48)]++
		hist[7][byte(b>>56)]++
	}
	n := int32(len(v))
	src, dst := v, f.radix[:len(v)]
	for d := range hist {
		h := &hist[d]
		shift := 8 * uint(d)
		if h[byte(math.Float64bits(src[0].P)>>shift)] == n {
			continue
		}
		var at int32
		for i, c := range h {
			h[i] = at
			at += c
		}
		for _, x := range src {
			b := byte(math.Float64bits(x.P) >> shift)
			dst[h[b]] = x
			h[b]++
		}
		src, dst = dst, src
	}
	return src
}

// ChunkStats resolves chunk c and folds its sink multiset into the ladder's
// sufficient statistics. Terms are added in the canonical multiset order, so
// the partial is a pure function of (spec, c) — the determinism the parallel
// fold's ordered merge relies on.
func (f *Fold) ChunkStats(s *StreamInstance, c int) (prob.SumStats, FoldStats) {
	sinks, st := f.ChunkSinks(s, c)
	var sum prob.SumStats
	for _, v := range sinks {
		sum.Add(float64(v.Weight), v.P)
	}
	return sum, st
}

// MajorityResult is a streamed electorate's certified weighted-majority
// evaluation: the interval for P[W > n/2], the structural fold totals, and
// the sufficient statistics they were certified from.
type MajorityResult struct {
	Interval prob.CertifiedInterval
	Stats    FoldStats
	Sum      prob.SumStats
}

// EvaluateMajority resolves every chunk of s, folds the resolved sink
// multisets into sufficient statistics, and certifies the mechanism's
// correct-majority probability P[W > n/2] via prob.CertifyMajority. Up to
// `workers` goroutines fold chunks concurrently, each holding one chunk of
// state; partials merge in chunk index order, so the result is bit-identical
// for every worker count.
func EvaluateMajority(ctx context.Context, s *StreamInstance, workers int) (*MajorityResult, error) {
	nc := s.NumChunks()
	if workers < 1 {
		workers = 1
	}
	if workers > nc {
		workers = nc
	}
	sums := make([]prob.SumStats, nc)
	folds := make([]FoldStats, nc)
	if workers == 1 {
		f := NewFold()
		for c := 0; c < nc; c++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sums[c], folds[c] = f.ChunkStats(s, c)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One fold scratch per worker; chunk results land in
				// chunk-indexed slots, so scheduling cannot reorder anything.
				f := NewFold()
				for c := range work {
					if ctx.Err() != nil {
						continue
					}
					sums[c], folds[c] = f.ChunkStats(s, c)
				}
			}()
		}
	feed:
		for c := 0; c < nc; c++ {
			select {
			case <-ctx.Done():
				break feed
			case work <- c:
			}
		}
		close(work)
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	res := &MajorityResult{}
	for c := 0; c < nc; c++ {
		res.Sum.Merge(&sums[c])
		res.Stats.Merge(folds[c])
	}
	res.Interval = prob.CertifyMajority(&res.Sum, float64(s.Len()/2))
	return res, nil
}
