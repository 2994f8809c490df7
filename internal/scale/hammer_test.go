package scale

import (
	"context"
	"math"
	"sync"
	"testing"

	"liquid/internal/prob"
)

// TestHammerStreamConcurrent is the race hammer for the streamed instance:
// one shared StreamInstance folded, laddered and streamed from many
// goroutines at once, with every result held to a single-threaded reference
// bit for bit. The instance's chunks are whole moment blocks, so its folds
// race to fill the moments memo while ladder passes read it or sum the
// blocks themselves. Run under `go test -race` (the `make check` race stage)
// this proves the instance is safe shared state, the memo is written once,
// and the parallel passes confine mutation to per-worker scratch.
func TestHammerStreamConcurrent(t *testing.T) {
	ctx := context.Background()
	spec := Spec{N: 150_000, Seed: 17, DelegateFrac: 0.55}
	// The references run on their own instance, so the shared one starts
	// with an empty memo.
	refInst := mustNew(t, spec)
	refStream := refInst.AppendRange(nil, 0, spec.N)
	ref, err := EvaluateMajority(ctx, refInst, 1)
	if err != nil {
		t.Fatal(err)
	}
	normal := prob.LadderOptions{Force: prob.TierNormal, Workers: 1}
	refDirect, err := prob.LadderMajority(ctx, prob.SliceSeq(refStream), normal)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b prob.CertifiedInterval) bool {
		return math.Float64bits(a.Point) == math.Float64bits(b.Point) &&
			math.Float64bits(a.HalfWidth) == math.Float64bits(b.HalfWidth) && a.Tier == b.Tier
	}

	s := mustNew(t, spec)
	workerCounts := []int{1, 4, 16}
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := workerCounts[(g/3)%len(workerCounts)]
			// A third of the goroutines run the parallel fold, a third the
			// ladder's normal tier, and a third stream every chunk through
			// a private buffer.
			switch g % 3 {
			case 0:
				res, err := EvaluateMajority(ctx, s, workers)
				if err != nil {
					t.Error(err)
					return
				}
				if !same(res.Interval, ref.Interval) || res.Stats != ref.Stats {
					t.Errorf("goroutine %d: fold diverged from reference", g)
				}
			case 1:
				opts := normal
				opts.Workers = workers
				ci, err := prob.LadderMajority(ctx, s, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if !same(ci, refDirect) {
					t.Errorf("goroutine %d: ladder %+v diverged from reference %+v", g, ci, refDirect)
				}
			default:
				var buf []float64
				for c := 0; c < s.NumChunks(); c++ {
					lo, hi := s.ChunkBounds(c)
					buf = s.AppendRange(buf[:0], lo, hi)
					if len(buf) != hi-lo {
						t.Errorf("goroutine %d: chunk %d yielded %d values, want %d", g, c, len(buf), hi-lo)
						return
					}
					for i := range buf {
						if math.Float64bits(buf[i]) != math.Float64bits(refStream[lo+i]) {
							t.Errorf("goroutine %d: chunk %d value %d diverged", g, c, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	memo, ok := s.Moments()
	want, _ := refInst.Moments()
	if !ok || memo != want {
		t.Errorf("shared memo %+v (stored %v), reference %+v", memo, ok, want)
	}
}
