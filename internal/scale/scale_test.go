package scale

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"liquid/internal/prob"
	"liquid/internal/rng"
)

func mustNew(t testing.TB, spec Spec) *StreamInstance {
	t.Helper()
	s, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamGolden pins the per-voter derivation: streamed electorates are
// part of experiment reproducibility, so the (seed, index) → competency map
// must never drift. Regenerating these constants is a breaking change to
// every S-experiment table.
func TestStreamGolden(t *testing.T) {
	s := mustNew(t, Spec{N: 1000, ChunkSize: 128, Seed: 42, DelegateFrac: 0.5})
	want := []struct {
		i int
		p float64
	}{
		{0, 0.5987751347308683},
		{1, 0.46495428849096337},
		{127, 0.50427357302720188},
		{128, 0.26395530048876836},
		{999, 0.635700928236828},
	}
	for _, w := range want {
		if got := s.Competency(w.i); got != w.p {
			t.Errorf("Competency(%d) = %.17g, want %.17g", w.i, got, w.p)
		}
	}
}

// TestStreamChunkLayoutInvariance checks the generator contract: the
// competency stream is a pure function of (seed, index), so re-chunking the
// same electorate yields the identical concatenated stream. (The delegation
// topology is deliberately chunk-local and so depends on ChunkSize — that is
// why ChunkSize is part of the instance definition.)
func TestStreamChunkLayoutInvariance(t *testing.T) {
	collect := func(chunk int) []float64 {
		s := mustNew(t, Spec{N: 5000, ChunkSize: chunk, Seed: 7})
		var all []float64
		for c := 0; c < s.NumChunks(); c++ {
			lo, hi := s.ChunkBounds(c)
			all = s.AppendRange(all, lo, hi)
		}
		return all
	}
	a, b := collect(64), collect(4096)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("competency %d differs across chunk layouts: %v != %v", i, a[i], b[i])
		}
	}
}

// TestSpecValidation rejects malformed specs.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{N: 0},
		{N: 10, Low: -0.1, High: 0.5},
		{N: 10, Low: 0.5, High: 1.5},
		{N: 10, Low: 0.8, High: 0.2},
		{N: 10, DelegateFrac: 1.5},
		{N: 10, DelegateFrac: -0.5},
	}
	for _, spec := range bad {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%+v) accepted", spec)
		}
	}
	if s := mustNew(t, Spec{N: 10}); s.Spec().ChunkSize != defaultChunkSize || s.Spec().High != 0.75 {
		t.Errorf("defaults not applied: %+v", s.Spec())
	}
}

// TestFoldStructure checks the resolved fold's structural invariants across
// delegation fractions: weight conservation (every vote lands on exactly one
// sink), sink/delegator partition, and that the fold totals agree with the
// per-chunk sink multisets they summarise.
func TestFoldStructure(t *testing.T) {
	for _, frac := range []float64{0, 0.3, 0.8, 1} {
		s := mustNew(t, Spec{N: 3000, ChunkSize: 256, Seed: 11, DelegateFrac: frac})
		var f Fold
		var agg FoldStats
		voterTotal := 0
		maxW := 0
		for c := 0; c < s.NumChunks(); c++ {
			sinks, st := f.ChunkSinks(s, c)
			if len(sinks) != st.Sinks {
				t.Fatalf("frac %v chunk %d: %d sinks reported, %d returned", frac, c, st.Sinks, len(sinks))
			}
			wsum := 0
			for _, v := range sinks {
				wsum += v.Weight
				if v.Weight > maxW {
					maxW = v.Weight
				}
			}
			lo, hi := s.ChunkBounds(c)
			if wsum != hi-lo {
				t.Fatalf("frac %v chunk %d: weight %d not conserved (chunk size %d)", frac, c, wsum, hi-lo)
			}
			agg.Merge(st)
			voterTotal += hi - lo
		}
		if agg.WeightSum != int64(voterTotal) || voterTotal != 3000 {
			t.Fatalf("frac %v: WeightSum %d, folded %d voters", frac, agg.WeightSum, voterTotal)
		}
		if agg.Sinks+agg.Delegators != 3000 {
			t.Fatalf("frac %v: sinks %d + delegators %d != n", frac, agg.Sinks, agg.Delegators)
		}
		if agg.MaxWeight != maxW {
			t.Fatalf("frac %v: MaxWeight %d, observed %d", frac, agg.MaxWeight, maxW)
		}
		if frac == 0 && (agg.Delegators != 0 || agg.MaxWeight != 1 || agg.LongestChain != 0) {
			t.Fatalf("frac 0 resolved to %+v, want all-direct", agg)
		}
		if frac == 1 && agg.Sinks != s.NumChunks() {
			// Only the forced first voter of each chunk can be a sink.
			t.Fatalf("frac 1: %d sinks, want %d", agg.Sinks, s.NumChunks())
		}
	}
}

// TestEvaluateMajorityContainsExact holds the streamed certified evaluation
// to the exact weighted-majority DP at a size where the latter is feasible:
// the interval from the chunk-folded sufficient statistics must contain the
// exact tail mass of the fully materialised resolved electorate.
func TestEvaluateMajorityContainsExact(t *testing.T) {
	for _, frac := range []float64{0, 0.4, 0.9} {
		s := mustNew(t, Spec{N: 400, ChunkSize: 64, Seed: rng.Derive(5, "scale", "exact"), DelegateFrac: frac, Low: 0.35, High: 0.7})
		var f Fold
		var voters []prob.WeightedVoter
		for c := 0; c < s.NumChunks(); c++ {
			sinks, _ := f.ChunkSinks(s, c)
			voters = append(voters, sinks...) // copy out: sinks alias fold scratch
		}
		wm, err := prob.NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		pmf := wm.PMFNaive()
		exact := prob.Sum(pmf[wm.TotalWeight()/2+1:])
		res, err := EvaluateMajority(context.Background(), s, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interval.Contains(exact) {
			t.Errorf("frac %v: interval [%v, %v] (±%v) does not contain exact %v",
				frac, res.Interval.Lo(), res.Interval.Hi(), res.Interval.HalfWidth, exact)
		}
		if res.Sum.N() != int64(res.Stats.Sinks) {
			t.Errorf("frac %v: %d stat terms for %d sinks", frac, res.Sum.N(), res.Stats.Sinks)
		}
	}
}

// TestEvaluateMajorityWorkerBitIdentity pins the parallel fold's determinism
// contract: partials merge in chunk index order, so every worker count
// produces the identical bytes.
func TestEvaluateMajorityWorkerBitIdentity(t *testing.T) {
	s := mustNew(t, Spec{N: 50_000, ChunkSize: 2048, Seed: 99, DelegateFrac: 0.6})
	var ref *MajorityResult
	for _, workers := range []int{1, 4, 16} {
		res, err := EvaluateMajority(context.Background(), s, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if math.Float64bits(res.Interval.Point) != math.Float64bits(ref.Interval.Point) ||
			math.Float64bits(res.Interval.HalfWidth) != math.Float64bits(ref.Interval.HalfWidth) ||
			math.Float64bits(res.Sum.Mean()) != math.Float64bits(ref.Sum.Mean()) ||
			math.Float64bits(res.Sum.Variance()) != math.Float64bits(ref.Sum.Variance()) ||
			res.Stats != ref.Stats {
			t.Fatalf("workers=%d diverges: %+v != %+v", workers, res, ref)
		}
	}
}

// TestMillionVoterEndToEnd is the acceptance check from the scale-tier issue:
// a 10^6-voter electorate evaluates end to end — the resolved weighted
// majority through the chunk fold, the direct vote through prob.Ladder — with
// certified half-widths inside the requested error budget, while no step ever
// materialises more than chunk-sized state per worker. On [0.3, 0.6) the
// mean sits far below the threshold and Hoeffding certifies; on the default
// range [0.25, 0.75) it sits at the threshold, so only the Berry–Esseen
// band does, and there the mechanism is all direct (DelegateFrac 0), since
// delegation inflates the variance past the budget.
func TestMillionVoterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("million-voter pass in -short mode")
	}
	const budget = 1e-3
	for _, spec := range []Spec{
		{N: 1_000_000, Seed: 2026, DelegateFrac: 0.5, Low: 0.3, High: 0.6},
		{N: 1_000_000, Seed: 2026},
	} {
		s := mustNew(t, spec)
		res, err := EvaluateMajority(context.Background(), s, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Interval.HalfWidth > budget {
			t.Fatalf("%+v: mechanism half-width %v over budget %v", spec, res.Interval.HalfWidth, budget)
		}
		if res.Stats.WeightSum != 1_000_000 {
			t.Fatalf("%+v: weight not conserved: %d", spec, res.Stats.WeightSum)
		}
		ci, err := prob.LadderMajority(context.Background(), s, prob.LadderOptions{ErrorBudget: budget})
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if ci.Tier != prob.TierNormal {
			t.Fatalf("%+v: ladder escalated to %v for a budgeted million-voter query", spec, ci.Tier)
		}
		if ci.HalfWidth > budget {
			t.Fatalf("%+v: direct half-width %v over budget %v", spec, ci.HalfWidth, budget)
		}
	}
}

// TestEvaluateMajorityCancellation: a cancelled context aborts the fold.
func TestEvaluateMajorityCancellation(t *testing.T) {
	s := mustNew(t, Spec{N: 100_000, ChunkSize: 1024, Seed: 3, DelegateFrac: 0.2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := EvaluateMajority(ctx, s, workers); err == nil {
			t.Fatalf("workers=%d: cancelled fold returned nil error", workers)
		}
	}
}

// countdownCtx reports cancellation once Err has been called left times, so
// a test can stop a pass part-way through its work.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// rangeOnly hides a sequence's moments memo from the ladder.
type rangeOnly struct{ prob.Seq }

// TestCancelledPassStoresNothing: a fold or ladder pass cancelled before or
// part-way through its blocks returns ctx's error, and leaves the moments
// memo empty, so a later pass computes the moments whole.
func TestCancelledPassStoresNothing(t *testing.T) {
	s := mustNew(t, Spec{N: 6 * prob.MomentBlock, Seed: 5, DelegateFrac: 0.3})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	opts := prob.LadderOptions{Force: prob.TierNormal}
	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		for _, tc := range []struct {
			name string
			ctx  func() context.Context
		}{
			{"before", func() context.Context { return cancelled }},
			{"part-way", func() context.Context {
				c := &countdownCtx{Context: context.Background()}
				c.left.Store(3)
				return c
			}},
		} {
			name, ctx := tc.name, tc.ctx
			if _, err := EvaluateMajority(ctx(), s, workers); !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d fold cancelled %s: err = %v", workers, name, err)
			}
			if _, err := prob.LadderMajority(ctx(), rangeOnly{s}, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d ladder cancelled %s: err = %v", workers, name, err)
			}
			if m, ok := s.Moments(); ok {
				t.Fatalf("workers=%d: cancelled %s pass stored moments %+v", workers, name, m)
			}
		}
	}
	if _, err := EvaluateMajority(context.Background(), s, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Moments(); !ok {
		t.Fatal("a whole fold stored no moments")
	}
}
