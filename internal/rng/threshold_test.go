package rng

import (
	"math"
	"slices"
	"testing"
)

// thresholdHit is the branch-free draw the Bernoulli kernels write inline:
// 1 when the word's low 53 bits are below th.
func thresholdHit(src *Source, th uint64) bool {
	return (src.Uint64()&(1<<53-1)-th)>>63 == 1
}

// checkThreshold holds Threshold(p) to Bernoulli(p) on twin streams from
// seed, draw for draw and in the stream's next word, and on the raw words
// around the threshold, where a floor or an off-by-one would show.
func checkThreshold(t *testing.T, p float64, seed uint64, draws int) {
	t.Helper()
	th := Threshold(p)
	if th < 1 || th > 1<<53 {
		t.Fatalf("p=%v: threshold %d outside [1, 2^53]", p, th)
	}
	for _, x := range []uint64{th - 2, th - 1, th, th + 1} {
		if x >= 1<<53 {
			continue
		}
		if got, want := x < th, float64(x)/(1<<53) < p; got != want {
			t.Fatalf("p=%v x=%d: threshold %d says %v, Bernoulli says %v", p, x, th, got, want)
		}
	}
	a, b := New(seed), New(seed)
	src := b.Source()
	for i := range draws {
		if got, want := thresholdHit(src, th), a.Bernoulli(p); got != want {
			t.Fatalf("p=%v seed %d draw %d: threshold says %v, Bernoulli says %v", p, seed, i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("p=%v seed %d: the streams continue at different words", p, seed)
	}
}

// TestThresholdMatchesBernoulli covers the smallest subnormal, the lattice
// points k/2^53 that Float64 can return and their float neighbours (the
// points where ceil matters), the largest p below 1, and random p.
func TestThresholdMatchesBernoulli(t *testing.T) {
	ps := []float64{math.SmallestNonzeroFloat64, 1e-300, 1 - 0x1p-53, 0.1, 1.0 / 3, 0.7}
	for _, k := range []uint64{1, 2, 3, 1000, 12345, 1 << 40, 1 << 52, 3 << 51, 1<<53 - 2, 1<<53 - 1} {
		p := float64(k) / (1 << 53)
		ps = append(ps, p, math.Nextafter(p, 0))
		if up := math.Nextafter(p, 1); up < 1 {
			ps = append(ps, up)
		}
	}
	s := New(27)
	for range 200 {
		if p := s.Float64(); p > 0 {
			ps = append(ps, p)
		}
	}
	for i, p := range ps {
		if !(p > 0 && p < 1) {
			t.Fatalf("case %d: p=%v is outside (0, 1)", i, p)
		}
		checkThreshold(t, p, uint64(i)+1, 2000)
	}
	// Put p exactly on the first word each twin stream draws, and one float
	// above it: the first draw then falls on the boundary itself.
	for seed := uint64(1000); seed < 1100; seed++ {
		x := New(seed).Uint64() & (1<<53 - 1)
		if x == 0 {
			continue
		}
		p := float64(x) / (1 << 53)
		checkThreshold(t, p, seed, 200)
		if up := math.Nextafter(p, 1); up < 1 {
			checkThreshold(t, up, seed, 200)
		}
	}
}

// FuzzThresholdMatchesBernoulli runs checkThreshold on any p in (0, 1)
// given by its bits, and on any seed.
func FuzzThresholdMatchesBernoulli(f *testing.F) {
	for _, p := range []float64{math.SmallestNonzeroFloat64, 0x1p-53, 0.5, 1 - 0x1p-53, math.Nextafter(0.5, 1)} {
		f.Add(math.Float64bits(p), uint64(1))
	}
	f.Fuzz(func(t *testing.T, bits, seed uint64) {
		p := math.Float64frombits(bits)
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		checkThreshold(t, p, seed, 256)
	})
}

// sampleWithoutReplacementReference is the loop SampleWithoutReplacement
// must reproduce: rejection through a map of the values drawn so far, on
// the rand.Rand's IntN. SampleWithoutReplacement must return the same
// values in the same order and leave the stream at the same position.
func sampleWithoutReplacementReference(s *Stream, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.rand.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rand.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// TestSampleWithoutReplacementMatchesReference covers k from 0 to twice
// the scan cutoff, so both rejection variants run, with n on both sides
// of the k*8 < n switch to the shuffle. At n = 8k+1 the rejection path
// meets many duplicates.
func TestSampleWithoutReplacementMatchesReference(t *testing.T) {
	for k := 0; k <= 2*sampleScanMax; k++ {
		for _, n := range []int{max(k, 1), 8 * k, 8*k + 1, 20*k + 3, 2000} {
			if n < k {
				continue
			}
			for rep := range 3 {
				seed := uint64(k)<<32 | uint64(n)<<2 | uint64(rep)
				a, b := New(seed), New(seed)
				got := a.SampleWithoutReplacement(n, k)
				want := sampleWithoutReplacementReference(b, n, k)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d seed %#x: got %v, want %v", n, k, seed, got, want)
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("n=%d k=%d seed %#x: the streams continue at different words", n, k, seed)
				}
			}
		}
	}
}
