package prob

import (
	"fmt"
	"math"
	"testing"

	"liquid/internal/rng"
)

const noFFTLanes = "this CPU runs the scalar FFT only: no AVX2 and FMA lanes to compare"

// saltedFloats draws n values uniform in [-1, 1), about one in four
// replaced by one of salts.
func saltedFloats(s *rng.Stream, n int, salts []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*s.Float64() - 1
		if s.IntN(4) == 0 {
			out[i] = salts[s.IntN(len(salts))]
		}
	}
	return out
}

// fftSalts are the transform inputs the tests salt with: signed zeros,
// subnormals and magnitudes near the top of the range (1e300 summed over
// 2^16 points stays finite).
var fftSalts = []float64{0, math.Copysign(0, -1), 1e-310, -1e-310, 5e-324, 1e300, -1e300}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// fftLanesDiff transforms copies of (re, im) with and without the lanes and
// reports the first index where either part differs in bits, or -1.
func fftLanesDiff(re, im []float64, lg int) int {
	t := fftTablesFor(lg)
	lr, li := append([]float64(nil), re...), append([]float64(nil), im...)
	sr, si := append([]float64(nil), re...), append([]float64(nil), im...)
	fftCoreLanes(lr, li, t, lg, true)
	fftCoreLanes(sr, si, t, lg, false)
	if i := firstBitDiff(lr, sr); i >= 0 {
		return i
	}
	return firstBitDiff(li, si)
}

// convolveLanesDiff runs the clamped merge of a and b with and without the
// lanes, into buffers prefilled with NaN so an unwritten index shows, and
// reports the first index where they differ in bits, or -1.
func convolveLanesDiff(ws *Workspace, a, b []float64) int {
	got := make([]float64, len(a)+len(b)-1)
	want := make([]float64, len(got))
	for i := range got {
		got[i], want[i] = math.NaN(), math.NaN()
	}
	ws.convolve(got, a, b, true)
	ws.convolve(want, a, b, false)
	return firstBitDiff(got, want)
}

// TestFFTLanesMatchScalar pins the lanes' whole transform, permutation
// included, to the scalar stages bit for bit at every size from 2 to 2^16.
func TestFFTLanesMatchScalar(t *testing.T) {
	if !cpuLanes {
		t.Skip(noFFTLanes)
	}
	s := rng.New(26)
	for lg := 1; lg <= 16; lg++ {
		n := 1 << lg
		re, im := saltedFloats(s, n, fftSalts), saltedFloats(s, n, fftSalts)
		if i := fftLanesDiff(re, im, lg); i >= 0 {
			t.Fatalf("lg=%d: lanes differ from scalar at %d", lg, i)
		}
	}
}

// TestConvolveLanesMatchScalar pins the clamped merge with lanes to the
// scalar merge bit for bit: every operand-length pair up to 70x70, which
// crosses convDirectThreshold and hits every remainder of the lanes' blocks,
// and 200 random pairs up to 5000. Operands hold mass-function values
// salted with zeros of both signs and subnormals, and some negatives, so
// the clamp sees -0 and negative results.
func TestConvolveLanesMatchScalar(t *testing.T) {
	if !cpuLanes {
		t.Skip(noFFTLanes)
	}
	s := rng.New(27)
	salts := []float64{0, math.Copysign(0, -1), 1e-310, 5e-324, -1e-310, 1, -0.25}
	operand := func(n int) []float64 {
		v := saltedFloats(s, n, salts)
		for i := range v {
			v[i] = math.Abs(v[i])
			if s.IntN(8) == 0 {
				v[i] = salts[s.IntN(len(salts))]
			}
		}
		return v
	}
	ws := NewWorkspace()
	for la := 1; la <= 70; la++ {
		for lb := 1; lb <= 70; lb++ {
			if i := convolveLanesDiff(ws, operand(la), operand(lb)); i >= 0 {
				t.Fatalf("%dx%d: lanes differ from scalar at %d", la, lb, i)
			}
		}
	}
	for r := 0; r < 200; r++ {
		la, lb := 1+s.IntN(5000), 1+s.IntN(5000)
		if i := convolveLanesDiff(ws, operand(la), operand(lb)); i >= 0 {
			t.Fatalf("random pair %d (%dx%d): lanes differ from scalar at %d", r, la, lb, i)
		}
	}
}

// TestScaleClampLanesEdges pins the lanes' scale and clamp to the scalar
// rule on its edges: -0 and NaN pass through, negatives and products that
// round to -0 or a negative subnormal become +0 or stay -0 as v < 0 says.
func TestScaleClampLanesEdges(t *testing.T) {
	if !cpuLanes {
		t.Skip(noFFTLanes)
	}
	src := []float64{
		math.Copysign(0, -1), 0, math.NaN(), -math.NaN(), -1, 1,
		-1e-320, 1e-320, -5e-324, math.Inf(1), math.Inf(-1), -1e-17,
	}
	for _, inv := range []float64{1, 1.0 / 1024, 0.5} {
		got := make([]float64, len(src))
		scaleClampLanes(got, src, len(src)/4, inv)
		for i, v := range src {
			want := v * inv
			if want < 0 {
				want = 0
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("inv=%g: src %g gives %g (%#x), want %g (%#x)", inv, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestStageTwiddlesMatchSmallerTables pins the identity the lanes' stages
// rely on: the size-2^s table's entry t equals the size-2^lg table's entry
// t*2^(lg-s) bit for bit, for every lg up to 20 and every s <= lg.
func TestStageTwiddlesMatchSmallerTables(t *testing.T) {
	const maxLg = 20
	// Only the twiddles are kept, to bound the test's memory.
	var re, im [maxLg + 1][]float64
	for lg := 1; lg <= maxLg; lg++ {
		tab := newFFTTables(lg)
		re[lg], im[lg] = tab.re, tab.im
		for s := 1; s <= lg; s++ {
			for k := range re[s] {
				j := k << (lg - s)
				if math.Float64bits(re[lg][j]) != math.Float64bits(re[s][k]) ||
					math.Float64bits(im[lg][j]) != math.Float64bits(im[s][k]) {
					t.Fatalf("lg=%d s=%d t=%d: (%v, %v) at %d, the size-%d table has (%v, %v)",
						lg, s, k, re[lg][j], im[lg][j], j, 1<<s, re[s][k], im[s][k])
				}
			}
		}
	}
}

// FuzzFFTLanesMatchScalar requires the lanes to match the scalar loops bit
// for bit on fuzzed inputs: the whole transform at sizes 2 to 2^14 with
// salted inputs, and the clamped merge of operands up to 3000 long. Wired
// into the `make check` fuzz-smoke stage.
func FuzzFFTLanesMatchScalar(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint16(33), uint16(32))
	f.Add(uint64(2), uint8(4), uint16(1), uint16(1025))
	f.Add(uint64(3), uint8(14), uint16(2999), uint16(700))
	f.Fuzz(func(t *testing.T, seed uint64, lgIn uint8, la, lb uint16) {
		if !cpuLanes {
			t.Skip(noFFTLanes)
		}
		s := rng.New(seed)
		lg := int(lgIn)%14 + 1
		n := 1 << lg
		if i := fftLanesDiff(saltedFloats(s, n, fftSalts), saltedFloats(s, n, fftSalts), lg); i >= 0 {
			t.Fatalf("seed=%d lg=%d: lanes differ from scalar at %d", seed, lg, i)
		}
		a := make([]float64, int(la)%3000+1)
		b := make([]float64, int(lb)%3000+1)
		for i := range a {
			a[i] = s.Float64()
		}
		for i := range b {
			b[i] = s.Float64()
		}
		if i := convolveLanesDiff(NewWorkspace(), a, b); i >= 0 {
			t.Fatalf("seed=%d %dx%d: merge lanes differ from scalar at %d", seed, len(a), len(b), i)
		}
	})
}

// BenchmarkConvolve times one clamped FFT merge of two n/2-long mass
// functions, so the transforms have size n, with and without the lanes.
// Part of `make bench-smoke`.
func BenchmarkConvolve(b *testing.B) {
	for _, n := range []int{1024, 2048, 4096} {
		for _, lanes := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/lanes=%v", n, lanes), func(b *testing.B) {
				if lanes && !cpuLanes {
					b.Skip(noFFTLanes)
				}
				s := rng.New(uint64(n))
				x, y := make([]float64, n/2), make([]float64, n/2)
				for i := range x {
					x[i], y[i] = s.Float64(), s.Float64()
				}
				out := make([]float64, n-1)
				ws := NewWorkspace()
				ws.convolve(out, x, y, lanes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.convolve(out, x, y, lanes)
				}
			})
		}
	}
}
