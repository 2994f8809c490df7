package prob_test

import (
	"context"
	"math"
	"testing"

	"liquid/internal/prob"
	"liquid/internal/scale"
)

// TestLadderBitIdentityAcrossWorkersAndChunks pins the ladder's determinism
// contracts. The kernel tiers are bit-identical for every worker budget
// (fork-join determinism) and for every sequence holding the same values
// (they sort). The normal tier's moments follow prob.MomentBlock's rule, so
// its interval is bit-identical for every Workers value, for
// StreamInstances that share one competency stream at any ChunkSize, for a
// SliceSeq of the same values, and whether a fold stored the moments before
// the ladder ran, after it, or not at all.
func TestLadderBitIdentityAcrossWorkersAndChunks(t *testing.T) {
	ctx := context.Background()
	instance := func(n, chunk int) *scale.StreamInstance {
		s, err := scale.New(scale.Spec{N: n, ChunkSize: chunk, Seed: 2026, DelegateFrac: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(seq prob.Seq, opts prob.LadderOptions) prob.CertifiedInterval {
		t.Helper()
		ci, err := prob.LadderMajority(ctx, seq, opts)
		if err != nil {
			t.Fatalf("LadderMajority(%T, %+v): %v", seq, opts, err)
		}
		return ci
	}
	same := func(a, b prob.CertifiedInterval) bool {
		return math.Float64bits(a.Point) == math.Float64bits(b.Point) &&
			math.Float64bits(a.HalfWidth) == math.Float64bits(b.HalfWidth) && a.Tier == b.Tier
	}
	workerCounts := []int{1, 2, 3, 8}

	small := instance(2500, 1000)
	smallSeqs := []prob.Seq{small, prob.SliceSeq(small.AppendRange(nil, 0, small.Len()))}
	for _, force := range []prob.Tier{prob.TierExact, prob.TierFFT, prob.TierNormal} {
		ref := run(smallSeqs[1], prob.LadderOptions{Force: force, Workers: 1})
		for _, workers := range workerCounts {
			for _, seq := range smallSeqs {
				if ci := run(seq, prob.LadderOptions{Force: force, Workers: workers}); !same(ci, ref) {
					t.Fatalf("tier %v workers=%d %T: %+v != reference %+v", force, workers, seq, ci, ref)
				}
			}
		}
	}

	// The normal tier over several moment blocks, the last one partial.
	const n = 100_003
	values := prob.SliceSeq(instance(n, 1000).AppendRange(nil, 0, n))
	want, err := prob.UnitMoments(ctx, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := run(values, prob.LadderOptions{Force: prob.TierNormal, Workers: 1})
	for _, workers := range workerCounts {
		opts := prob.LadderOptions{Force: prob.TierNormal, Workers: workers}
		if ci := run(values, opts); !same(ci, ref) {
			t.Fatalf("SliceSeq workers=%d: %+v != reference %+v", workers, ci, ref)
		}
		for _, chunk := range []int{1000, prob.MomentBlock, 4 * prob.MomentBlock} {
			for _, fold := range []string{"before", "after", "none"} {
				s := instance(n, chunk)
				if fold == "before" {
					if _, err := scale.EvaluateMajority(ctx, s, workers); err != nil {
						t.Fatal(err)
					}
				}
				cis := []prob.CertifiedInterval{run(s, opts)}
				if fold == "after" {
					if _, err := scale.EvaluateMajority(ctx, s, workers); err != nil {
						t.Fatal(err)
					}
					cis = append(cis, run(s, opts))
				}
				for _, ci := range cis {
					if !same(ci, ref) {
						t.Fatalf("ChunkSize %d fold %s workers=%d: %+v != reference %+v", chunk, fold, workers, ci, ref)
					}
				}
				memo, ok := s.Moments()
				if wantMemo := fold != "none" && chunk%prob.MomentBlock == 0; ok != wantMemo {
					t.Fatalf("ChunkSize %d fold %s: memo stored %v, want %v", chunk, fold, ok, wantMemo)
				}
				if ok && memo != *want {
					t.Fatalf("ChunkSize %d fold %s workers=%d: memo %+v != ladder's moments %+v", chunk, fold, workers, memo, *want)
				}
			}
		}
	}
}
