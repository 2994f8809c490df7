package prob

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the fast-convolution kernel behind the
// divide-and-conquer PMF evaluators: an iterative radix-2 FFT on
// split-complex (separate re/im) buffers with per-size cached twiddle
// tables, and a real-input linear convolution that packs both operands
// into one complex transform. Everything is deterministic: for fixed
// inputs the same sequence of float operations runs in the same order, so
// results are bit-identical across calls, goroutines, and worker counts.
// Every product that feeds a sum is rounded explicitly (float64(x*y)), which
// the Go spec says keeps it from being fused into a multiply-add: the scalar
// loops compute the same bits on every architecture, and the vector lanes
// (fft_amd64.s, DESIGN.md §11 "FFT lanes") match them bit for bit.

// fftTables holds the twiddle factors and bit-reversal permutation for one
// transform size n = 1 << lg. Tables are immutable once built and cached
// process-wide: they are a pure function of the size, so sharing them across
// workspaces (and goroutines) loses nothing and saves every short-lived
// workspace the trigonometric rebuild. The size-s stage of a larger
// transform reads the size-s table: its entry t equals the larger table's
// entry t*n/s bit for bit, since the angles differ by exact powers of two.
type fftTables struct {
	re, im []float64 // re[t], im[t] = cos, sin of -2*pi*t/n for t < n/2
	rev    []int32   // rev[i] = i with its lg bits reversed
	swaps  []int32   // the pairs i, rev[i] with i < rev[i], flattened
}

// fftCache holds one table set per power-of-two size. Readers take the
// lock-free atomic fast path; builders serialize on the mutex and publish
// the finished (immutable) table.
var fftCache struct {
	mu   sync.Mutex
	tabs [64]atomic.Pointer[fftTables]
}

// fftTablesFor returns (building if needed) the twiddle tables for size
// 1 << lg.
func fftTablesFor(lg int) *fftTables {
	if t := fftCache.tabs[lg].Load(); t != nil {
		return t
	}
	fftCache.mu.Lock()
	defer fftCache.mu.Unlock()
	if t := fftCache.tabs[lg].Load(); t != nil {
		return t
	}
	t := newFFTTables(lg)
	fftCache.tabs[lg].Store(t)
	return t
}

// newFFTTables builds the tables for size 1 << lg.
func newFFTTables(lg int) *fftTables {
	n := 1 << lg
	t := &fftTables{
		re:  make([]float64, n/2),
		im:  make([]float64, n/2),
		rev: make([]int32, n),
		// Bit reversal fixes the 2^ceil(lg/2) palindromes and pairs the rest.
		swaps: make([]int32, 0, n-1<<((lg+1)/2)),
	}
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		t.re[k] = math.Cos(ang)
		t.im[k] = math.Sin(ang)
	}
	for i := 1; i < n; i++ {
		t.rev[i] = t.rev[i>>1]>>1 | int32(i&1)<<(lg-1)
	}
	for i, j := range t.rev {
		if int32(i) < j {
			t.swaps = append(t.swaps, int32(i), j)
		}
	}
	return t
}

// fftCoreLanes performs an in-place forward DFT of length n = 1 << lg >= 2
// on the split-complex vector (re, im): the bit-reversal permutation, then
// fftStages. The inverse transform reuses the same kernel with the re and im
// slices swapped (conjugation trick); the caller divides by n.
func fftCoreLanes(re, im []float64, t *fftTables, lg int, lanes bool) {
	bitReverse(re, im, t.swaps)
	fftStages(re, im, t, lg, lanes)
}

// bitReverse applies the bit-reversal permutation to (re, im) as its list
// of transpositions, with no data-dependent branch.
//
//lint:hotpath
func bitReverse(re, im []float64, swaps []int32) {
	for k := 0; k+1 < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		re[i], re[j] = re[j], re[i]
		im[i], im[j] = im[j], im[i]
	}
}

// fftStages runs the lg butterfly stages of the transform of size
// n = 1 << lg over (re, im), which hold their input in bit-reversed order.
// With lanes and n >= 8 the stages run four lanes at a time: sizes 2, 4 and
// 8 in one in-register pass over each block of eight, each later pair of
// sizes as one pass of fftStagesScalar's fused loop, and the last stage
// alone when lg is even. Size s reads the size-s table.
func fftStages(re, im []float64, t *fftTables, lg int, lanes bool) {
	n := 1 << lg
	re, im = re[:n], im[:n]
	if !lanes || lg < 3 {
		fftStagesScalar(re, im, t, lg)
		return
	}
	t4, t8 := fftTablesFor(2), fftTablesFor(3)
	fft8Lanes(re, im, t4.re, t4.im, t8.re, t8.im)
	s := 4
	for ; s < lg; s += 2 {
		a, b := fftTablesFor(s), fftTablesFor(s+1)
		fftPairLanes(re, im, a.re, a.im, b.re, b.im)
	}
	if s == lg {
		fftStageLanes(re, im, t.re, t.im)
	}
}

// fftStagesScalar is fftStages one butterfly at a time: the reference the
// lanes match, and the path of every other CPU and architecture.
//
//lint:hotpath
func fftStagesScalar(re, im []float64, t *fftTables, lg int) {
	n := 1 << lg
	// Size-2 stage: the twiddle is 1, so skip the table loads.
	for base := 0; base < n; base += 2 {
		ar, ai := re[base], im[base]
		br, bi := re[base+1], im[base+1]
		re[base], im[base] = ar+br, ai+bi
		re[base+1], im[base+1] = ar-br, ai-bi
	}
	twr, twi := t.re, t.im
	// Remaining stages run fused in pairs: one pass computes a radix-2
	// stage of size m and the following stage of size 2m with all four
	// touched points held in registers. The arithmetic — each multiply and
	// add, per output — is exactly the two-pass radix-2 arithmetic, so
	// results are bit-identical; fusing only halves the loads and stores,
	// which is where the time goes on this memory-bound kernel.
	size := 4
	for ; size<<1 <= n; size <<= 2 {
		m := size
		h := m >> 1
		strideA := n / m
		strideB := strideA >> 1
		for base := 0; base < n; base += m << 1 {
			for t := 0; t < h; t++ {
				wAr, wAi := twr[t*strideA], twi[t*strideA]
				j0 := base + t
				j1 := j0 + h
				j2 := j0 + m
				j3 := j2 + h
				// Stage m, butterfly (j0, j1).
				x1r, x1i := re[j1], im[j1]
				t1r := float64(x1r*wAr) - float64(x1i*wAi)
				t1i := float64(x1r*wAi) + float64(x1i*wAr)
				u0r, u0i := re[j0], im[j0]
				a0r, a0i := u0r+t1r, u0i+t1i
				a1r, a1i := u0r-t1r, u0i-t1i
				// Stage m, butterfly (j2, j3): same in-block offset t, so
				// the same twiddle.
				x3r, x3i := re[j3], im[j3]
				t3r := float64(x3r*wAr) - float64(x3i*wAi)
				t3i := float64(x3r*wAi) + float64(x3i*wAr)
				u2r, u2i := re[j2], im[j2]
				a2r, a2i := u2r+t3r, u2i+t3i
				a3r, a3i := u2r-t3r, u2i-t3i
				// Stage 2m, butterfly (j0, j2).
				wB0r, wB0i := twr[t*strideB], twi[t*strideB]
				t2r := float64(a2r*wB0r) - float64(a2i*wB0i)
				t2i := float64(a2r*wB0i) + float64(a2i*wB0r)
				re[j0], im[j0] = a0r+t2r, a0i+t2i
				re[j2], im[j2] = a0r-t2r, a0i-t2i
				// Stage 2m, butterfly (j1, j3).
				wB1r, wB1i := twr[(t+h)*strideB], twi[(t+h)*strideB]
				t4r := float64(a3r*wB1r) - float64(a3i*wB1i)
				t4i := float64(a3r*wB1i) + float64(a3i*wB1r)
				re[j1], im[j1] = a1r+t4r, a1i+t4i
				re[j3], im[j3] = a1r-t4r, a1i-t4i
			}
		}
	}
	// Odd leftover stage (lg even): one plain radix-2 pass.
	for ; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for base := 0; base < n; base += size {
			tw := 0
			for j := base; j < base+half; j++ {
				k := j + half
				wr, wi := twr[tw], twi[tw]
				xr, xi := re[k], im[k]
				tr := float64(xr*wr) - float64(xi*wi)
				ti := float64(xr*wi) + float64(xi*wr)
				ur, ui := re[j], im[j]
				re[j], im[j] = ur+tr, ui+ti
				re[k], im[k] = ur-tr, ui-ti
				tw += stride
			}
		}
	}
}

// convDirectThreshold bounds len(a)*len(b) below which convolution is
// evaluated directly (per-output compensated sums) instead of via FFT.
const convDirectThreshold = 1024

// convolve writes the linear convolution of a and b (len(a)+len(b)-1
// values) into dst, clamped by copyClampNonneg's rule. dst may overlap a and
// b: both are read in full before dst is written. Small products are
// evaluated directly; larger ones go through one packed complex FFT of both
// real operands and one inverse, whose stages, spectrum product and final
// scale run four lanes at a time when lanes is set. The bits do not depend
// on lanes.
func (ws *Workspace) convolve(dst, a, b []float64, lanes bool) {
	outLen := len(a) + len(b) - 1
	if len(a)*len(b) <= convDirectThreshold {
		ws.ensureFFT(outLen)
		res := ws.fftRe[:outLen]
		convDirect(a, b, res)
		copyClampNonneg(dst, res)
		return
	}
	lg := ceilLog2(outLen)
	n := 1 << lg
	ws.ensureFFT(n)
	re, im := ws.fftRe[:n], ws.fftIm[:n]
	t := fftTablesFor(lg)
	// Pack a into re and b into im, permuted for the forward transform.
	zeroFloats(re)
	zeroFloats(im)
	rev := t.rev
	for i, v := range a {
		re[rev[i]] = v
	}
	for i, v := range b {
		im[rev[i]] = v
	}
	fftStages(re, im, t, lg, lanes)

	// Separate the two real spectra from the packed transform and multiply
	// pointwise, using conjugate symmetry to touch each bin pair once.
	// DC and Nyquist bins of a real signal's spectrum are real.
	re[0], im[0] = re[0]*im[0], 0
	h := n / 2
	re[h], im[h] = re[h]*im[h], 0
	k := 1
	if lanes {
		blocks := (h - 1) / 4
		fftProductLanes(re, im, blocks)
		k += 4 * blocks
	}
	for ; k < h; k++ {
		k2 := n - k
		zr1, zi1 := re[k], im[k]
		zr2, zi2 := re[k2], im[k2]
		ar := (zr1 + zr2) / 2
		ai := (zi1 - zi2) / 2
		br := (zi1 + zi2) / 2
		bi := (zr2 - zr1) / 2
		cr := float64(ar*br) - float64(ai*bi)
		ci := float64(ar*bi) + float64(ai*br)
		re[k], im[k] = cr, ci
		re[k2], im[k2] = cr, -ci
	}

	// Inverse DFT via the swap trick: forward-transforming (im, re) leaves
	// the unnormalized real part of the inverse in re.
	fftCoreLanes(im, re, t, lg, lanes)
	inv := 1 / float64(n)
	src, out := re[:outLen], dst[:outLen]
	i := 0
	if lanes {
		blocks := outLen / 4
		scaleClampLanes(out, src, blocks, inv)
		i = 4 * blocks
	}
	for ; i < outLen; i++ {
		v := src[i] * inv
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
}

// convDirect writes the convolution of a and b into out, each output cell
// as its own compensated sum.
//
//lint:hotpath
func convDirect(a, b, out []float64) {
	for k := range out {
		lo := k - len(b) + 1
		if lo < 0 {
			lo = 0
		}
		hi := k
		if hi > len(a)-1 {
			hi = len(a) - 1
		}
		var acc Accumulator
		for i := lo; i <= hi; i++ {
			acc.Add(a[i] * b[k-i])
		}
		out[k] = acc.Sum()
	}
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 1 // the FFT kernel needs length >= 2
	}
	return bits.Len(uint(n - 1))
}

// zeroFloats clears s in place.
//
//lint:hotpath
func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
