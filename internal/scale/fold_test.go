package scale

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"liquid/internal/prob"
)

// chunkSinksReference is the resolution oracle for Fold.ChunkSinks: the
// same one-pass resolution on fresh slices, each draw derived on its own
// from the voter index, with the sinks listed by ascending voter index.
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
		if s.delegates(s.voterWord(i), pos) {
			t := targetPos(s.voterWord(i), pos)
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
	return voters, st
}

// canonical returns a copy of a sink multiset in (weight, p) order, so two
// multisets compare without regard to the order they were listed in.
func canonical(v []prob.WeightedVoter) []prob.WeightedVoter {
	out := append([]prob.WeightedVoter(nil), v...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight < out[b].Weight
		}
		return math.Float64bits(out[a].P) < math.Float64bits(out[b].P)
	})
	return out
}

// FuzzChunkSinksCanonical holds the fold's chunk pass, one Fold reused
// across every chunk, to chunkSinksReference: the same FoldStats, the same
// sink multiset (both compared in canonical order), a weighted partial
// equal to the reference sinks' sums in generation order, and a fused
// moment partial equal, bit for bit, to the ladder's partial over the
// chunk's competencies (prob.UnitMoments; a fuzzed chunk is at most 4096
// voters, so one block). The range inputs cover the default range (both
// zero), [0, 1], and Low == High. A nonzero ulps narrows the range to that
// many ulps above Low, so sinks tie on p and differ only in their low bits.
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
		var fold Fold
		for c := 0; c < s.NumChunks(); c++ {
			var pd [1]prob.SumStats
			sum, sumSt := fold.ChunkStats(s, c, pd[:])
			got, gotSt := fold.ChunkSinks(s, c)
			want, wantSt := chunkSinksReference(s, c)
			var wantSum prob.SumStats
			for _, v := range want {
				wantSum.Add(float64(v.Weight), v.P)
			}
			if sum != wantSum || sumSt != wantSt {
				t.Fatalf("%+v chunk %d: ChunkStats (%+v, %+v), reference sums (%+v, %+v)", s.Spec(), c, sum, sumSt, wantSum, wantSt)
			}
			if gotSt != wantSt {
				t.Fatalf("%+v chunk %d: FoldStats %+v, reference %+v", s.Spec(), c, gotSt, wantSt)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v chunk %d: %d sinks, reference %d", s.Spec(), c, len(got), len(want))
			}
			got, want = canonical(got), canonical(want)
			for i := range got {
				if got[i].Weight != want[i].Weight || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
					t.Fatalf("%+v chunk %d sink %d: %+v, reference %+v", s.Spec(), c, i, got[i], want[i])
				}
			}
			cLo, cHi := s.ChunkBounds(c)
			ladder, err := prob.UnitMoments(context.Background(), prob.SliceSeq(s.AppendRange(nil, cLo, cHi)), 1)
			if err != nil {
				t.Fatal(err)
			}
			var fused prob.SumStats
			fused.Merge(&pd[0])
			if fused != *ladder {
				t.Fatalf("%+v chunk %d: fused moments %+v, ladder's %+v", s.Spec(), c, fused, *ladder)
			}
		}
	})
}

// TestEvaluateMajorityGolden pins the bits of the certified fold at
// n = 10^5 on the default range and chunk size. Every SumStats term is
// added in generation order, so any drift in that order (or in the
// resolution) can move these bits.
func TestEvaluateMajorityGolden(t *testing.T) {
	golden := []struct {
		frac                         float64
		point, halfWidth, mean, vari uint64
		stats                        FoldStats
	}{
		{0, 0x3fd94de2f15459e2, 0x3f47a49e3814b800, 0x40e8650add2c5325, 0x40d65fa38f649be9,
			FoldStats{Sinks: 100000, Delegators: 0, MaxWeight: 1, LongestChain: 0, WeightSum: 100000}},
		{0.5, 0x3fd8b6867b62d694, 0x3fa4ed66d855e3f8, 0x40e859d3da1afcc2, 0x41089670a6b417a7,
			FoldStats{Sinks: 49889, Delegators: 50111, MaxWeight: 209, LongestChain: 11, WeightSum: 100000}},
		{0.95, 0x3fe25f5e80dd1a30, 0x3fd06632753d685e, 0x40e97129b4786c04, 0x419e3a658b33f09c,
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

// BenchmarkChunkStats measures the fold's fused chunk pass at the default
// chunk width: resolution, the certificate's weighted moments and the
// ladder's unit-weight moment block, cycling over a few chunks on one
// reused Fold. The warm-up folds every chunk once, so the timed loop runs
// on sized scratch and reads 0 allocs/op.
func BenchmarkChunkStats(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 0.95} {
		b.Run(fmt.Sprintf("frac=%v", frac), func(b *testing.B) {
			s := mustNew(b, Spec{N: 8 << 14, Seed: 2026, DelegateFrac: frac})
			var f Fold
			var pd [1]prob.SumStats
			for c := 0; c < s.NumChunks(); c++ {
				f.ChunkStats(s, c, pd[:])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pd[0] = prob.SumStats{}
				f.ChunkStats(s, i%s.NumChunks(), pd[:])
			}
		})
	}
}
