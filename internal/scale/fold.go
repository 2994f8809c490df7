package scale

import (
	"context"

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
// electorate holds only ChunkSize-voter state per worker. The zero value is
// ready to use. Not safe for concurrent use; give each goroutine its own
// Fold.
type Fold struct {
	sink   []int32
	depth  []int32
	weight []int32
	ps     []float64
	voters []prob.WeightedVoter
}

func (f *Fold) grow(k int) {
	if cap(f.sink) < k {
		f.sink = make([]int32, k)
		f.depth = make([]int32, k)
		f.weight = make([]int32, k)
		f.ps = make([]float64, k)
		f.voters = make([]prob.WeightedVoter, 0, k)
	}
	f.sink = f.sink[:k]
	f.depth = f.depth[:k]
	f.weight = f.weight[:k]
	f.ps = f.ps[:k]
}

// ChunkSinks resolves chunk c's delegations in one forward pass (delegation
// is strictly backwards within the chunk, so every voter's sink is known by
// the time it is visited) and returns the resolved sinks in generation
// order, ascending by voter index: a pure function of (spec, c). Each
// voter's base word is derived once and split into its three draws. The
// returned slice aliases fold scratch and is invalidated by the next call
// on f.
func (f *Fold) ChunkSinks(s *StreamInstance, c int) ([]prob.WeightedVoter, FoldStats) {
	lo, hi := s.ChunkBounds(c)
	k := hi - lo
	f.grow(k)
	st := FoldStats{WeightSum: int64(k)}
	for pos := 0; pos < k; pos++ {
		w := s.voterWord(lo + pos)
		f.ps[pos] = s.competency(w)
		f.weight[pos] = 0
		if !s.delegates(w, pos) {
			f.sink[pos] = int32(pos)
			f.depth[pos] = 0
			continue
		}
		t := targetPos(w, pos)
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
	return voters, st
}

// ChunkStats resolves chunk c (ChunkSinks) and folds its sinks into the
// certificate's sufficient statistics, adding terms in generation order, so
// the partial is a pure function of (spec, c): the determinism the parallel
// fold's ordered merge relies on. The chunk's competencies, still in hand,
// also go into pd: the one at chunk position pos into the unit-weight
// partial pd[pos/prob.MomentBlock], in index order. For a chunk that
// starts on a block boundary these are the ladder's block partials
// (prob.UnitMoments). A nil pd skips them.
func (f *Fold) ChunkStats(s *StreamInstance, c int, pd []prob.SumStats) (prob.SumStats, FoldStats) {
	sinks, st := f.ChunkSinks(s, c)
	for b := range pd {
		pd[b].AddUnits(f.ps[b*prob.MomentBlock : min(len(f.ps), (b+1)*prob.MomentBlock)])
	}
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

// EvaluateMajority resolves every chunk of s, folds the resolved sinks into
// sufficient statistics, and certifies the mechanism's correct-majority
// probability P[W > n/2] via prob.CertifyMajority. Up to `workers`
// goroutines fold chunks (prob.ParallelFor), each holding one chunk of
// state; partials merge in chunk index order, so the result is
// bit-identical for every worker count.
//
// When its chunks are whole prob.MomentBlocks and s holds no moments yet,
// the fold also sums the stream's moment blocks by prob.UnitMoments' rule
// and stores their merge on s for prob.LadderMajority (prob.MomentsMemo):
// the memo changes who computes the moments, never their bits. A cancelled
// fold stores nothing.
func EvaluateMajority(ctx context.Context, s *StreamInstance, workers int) (*MajorityResult, error) {
	nc := s.NumChunks()
	sums := make([]prob.SumStats, nc)
	folds := make([]FoldStats, nc)
	var pd []prob.SumStats // the stream's moment blocks, when the fold sums them
	perChunk := 0
	if s.spec.ChunkSize%prob.MomentBlock == 0 && s.moments.Load() == nil {
		perChunk = s.spec.ChunkSize / prob.MomentBlock
		pd = make([]prob.SumStats, (s.spec.N+prob.MomentBlock-1)/prob.MomentBlock)
	}
	scratch := make([]Fold, max(1, min(workers, nc)))
	err := prob.ParallelFor(ctx, nc, workers, func(w, c int) {
		sums[c], folds[c] = scratch[w].ChunkStats(s, c, pd[c*perChunk:min(len(pd), (c+1)*perChunk)])
	})
	if err != nil {
		return nil, err
	}
	res := &MajorityResult{}
	for c := 0; c < nc; c++ {
		res.Sum.Merge(&sums[c])
		res.Stats.Merge(folds[c])
	}
	res.Interval = prob.CertifyMajority(&res.Sum, float64(s.Len()/2))
	if pd != nil {
		var m prob.SumStats
		for b := range pd {
			m.Merge(&pd[b])
		}
		s.moments.CompareAndSwap(nil, &m)
	}
	return res, nil
}
