package scale

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"liquid/internal/prob"
)

// chunkSinksReference is the comparison-sort oracle for Fold.ChunkSinks:
// the same one-pass resolution on fresh slices, then sort.Slice ascending
// by p and the workspace's stable counting sort by weight. sort.Slice is
// not stable, but sinks it could swap tie on p and are then separated by
// weight or indistinguishable, so the canonical (weight, p) sequence is
// the same for any correct sort.
func chunkSinksReference(s *StreamInstance, c int) ([]prob.WeightedVoter, FoldStats) {
	lo, hi := s.ChunkBounds(c)
	k := hi - lo
	sink := make([]int, k)
	depth := make([]int, k)
	weight := make([]int, k)
	st := FoldStats{WeightSum: int64(k)}
	for pos := 0; pos < k; pos++ {
		i := lo + pos
		sink[pos] = pos
		if s.delegates(i, pos) {
			t := s.targetPos(i, pos)
			sink[pos] = sink[t]
			depth[pos] = depth[t] + 1
			st.Delegators++
			st.LongestChain = max(st.LongestChain, depth[pos])
		}
	}
	for pos := 0; pos < k; pos++ {
		weight[sink[pos]]++
	}
	var voters []prob.WeightedVoter
	for pos := 0; pos < k; pos++ {
		if sink[pos] == pos {
			st.Sinks++
			st.MaxWeight = max(st.MaxWeight, weight[pos])
			voters = append(voters, prob.WeightedVoter{Weight: weight[pos], P: s.Competency(lo + pos)})
		}
	}
	sort.Slice(voters, func(a, b int) bool { return voters[a].P < voters[b].P })
	return prob.NewWorkspace().SortVotersByWeight(voters, st.MaxWeight), st
}

// FuzzChunkSinksCanonical holds the radix-sorted fold, one Fold reused
// across every chunk, to the comparison sort: the same canonical
// (weight, p) sequence, bit for bit, and the same FoldStats. The range
// inputs cover the default range (both zero), [0, 1], and Low == High,
// where every key is equal and every digit is skipped. A nonzero ulps
// narrows the range to that many ulps above Low, so keys tie on p and
// differ only in their low bytes.
func FuzzChunkSinksCanonical(f *testing.F) {
	f.Add(uint16(3000), uint16(256), uint64(11), uint16(0), uint16(0), uint16(0), uint16(32768))
	f.Add(uint16(5000), uint16(4096), uint64(2026), uint16(0), uint16(65535), uint16(0), uint16(62258))
	f.Add(uint16(1000), uint16(100), uint64(7), uint16(30000), uint16(30000), uint16(0), uint16(40000))
	f.Add(uint16(1), uint16(1), uint64(0), uint16(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint16(4999), uint16(4095), uint64(1), uint16(0), uint16(65535), uint16(0), uint16(65535))
	f.Add(uint16(2048), uint16(1), uint64(5), uint16(100), uint16(200), uint16(0), uint16(0))
	f.Add(uint16(3000), uint16(2000), uint64(3), uint16(40000), uint16(0), uint16(1), uint16(30000))
	f.Add(uint16(3000), uint16(2000), uint64(4), uint16(20000), uint16(0), uint16(700), uint16(10000))
	f.Add(uint16(3000), uint16(2000), uint64(6), uint16(0), uint16(0), uint16(40000), uint16(50000))
	f.Fuzz(func(t *testing.T, nRaw, chunkRaw uint16, seed uint64, a, b, ulps, fracRaw uint16) {
		lo, hi := float64(min(a, b))/math.MaxUint16, float64(max(a, b))/math.MaxUint16
		if ulps != 0 {
			hi = min(1, math.Float64frombits(math.Float64bits(lo)+uint64(ulps)))
		}
		s := mustNew(t, Spec{
			N:            1 + int(nRaw)%5000,
			ChunkSize:    1 + int(chunkRaw)%4096,
			Seed:         seed,
			Low:          lo,
			High:         hi,
			DelegateFrac: float64(fracRaw) / math.MaxUint16,
		})
		fold := NewFold()
		for c := 0; c < s.NumChunks(); c++ {
			got, gotSt := fold.ChunkSinks(s, c)
			want, wantSt := chunkSinksReference(s, c)
			if gotSt != wantSt {
				t.Fatalf("%+v chunk %d: FoldStats %+v, reference %+v", s.Spec(), c, gotSt, wantSt)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v chunk %d: %d sinks, reference %d", s.Spec(), c, len(got), len(want))
			}
			for i := range got {
				if got[i].Weight != want[i].Weight || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
					t.Fatalf("%+v chunk %d sink %d: %+v, reference %+v", s.Spec(), c, i, got[i], want[i])
				}
			}
		}
	})
}

// TestEvaluateMajorityGolden pins the bits of the certified fold at
// n = 10^5 on the default range and chunk size. Every SumStats term is
// added in the canonical order, so any drift in that order (or in the
// resolution) moves these bits.
func TestEvaluateMajorityGolden(t *testing.T) {
	golden := []struct {
		frac                         float64
		point, halfWidth, mean, vari uint64
		stats                        FoldStats
	}{
		{0, 0x3fd94de2f15459e2, 0x3f6ac162ad26bc80, 0x40e8650add2c5325, 0x40d65fa38f649be9,
			FoldStats{Sinks: 100000, Delegators: 0, MaxWeight: 1, LongestChain: 0, WeightSum: 100000}},
		{0.5, 0x3fd8b6867b62d694, 0x3fa55d22716d09b8, 0x40e859d3da1afcc2, 0x41089670a6b417a7,
			FoldStats{Sinks: 49889, Delegators: 50111, MaxWeight: 209, LongestChain: 11, WeightSum: 100000}},
		{0.95, 0x3fe25f5e80dd1a30, 0x3fd066c47d2d42c6, 0x40e97129b4786c04, 0x419e3a658b33f09c,
			FoldStats{Sinks: 5066, Delegators: 94934, MaxWeight: 11724, LongestChain: 22, WeightSum: 100000}},
	}
	for _, g := range golden {
		s := mustNew(t, Spec{N: 100_000, Seed: 2026, DelegateFrac: g.frac})
		res, err := EvaluateMajority(context.Background(), s, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := [4]uint64{
			math.Float64bits(res.Interval.Point), math.Float64bits(res.Interval.HalfWidth),
			math.Float64bits(res.Sum.Mean()), math.Float64bits(res.Sum.Variance()),
		}
		if want := [4]uint64{g.point, g.halfWidth, g.mean, g.vari}; got != want {
			t.Errorf("frac %v: (point, half-width, mean, variance) bits %#x, want %#x", g.frac, got, want)
		}
		if res.Stats != g.stats {
			t.Errorf("frac %v: FoldStats %+v, want %+v", g.frac, res.Stats, g.stats)
		}
	}
}

// BenchmarkChunkSinks measures one chunk's resolution and canonical sort
// at the default chunk width, cycling over a few chunks on one reused
// Fold. The warm-up folds every chunk once, so the timed loop runs on
// sized scratch and reads 0 allocs/op.
func BenchmarkChunkSinks(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 0.95} {
		b.Run(fmt.Sprintf("frac=%v", frac), func(b *testing.B) {
			s := mustNew(b, Spec{N: 8 << 14, ChunkSize: 1 << 14, Seed: 2026, DelegateFrac: frac})
			f := NewFold()
			for c := 0; c < s.NumChunks(); c++ {
				f.ChunkSinks(s, c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.ChunkSinks(s, i%s.NumChunks())
			}
		})
	}
}
