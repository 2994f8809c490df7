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

// fftTables holds the twiddle factors and bit-reversal permutation for one
// transform size n = 1 << lg. Tables are immutable once built and cached
// process-wide: they are a pure function of the size, so sharing them across
// workspaces (and goroutines) loses nothing and saves every short-lived
// workspace the trigonometric rebuild.
type fftTables struct {
	re, im []float64 // re[t], im[t] = cos, sin of -2*pi*t/n for t < n/2
	rev    []int32
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
	n := 1 << lg
	t := &fftTables{
		re:  make([]float64, n/2),
		im:  make([]float64, n/2),
		rev: make([]int32, n),
	}
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		t.re[k] = math.Cos(ang)
		t.im[k] = math.Sin(ang)
	}
	for i := 1; i < n; i++ {
		t.rev[i] = t.rev[i>>1]>>1 | int32(i&1)<<(lg-1)
	}
	fftCache.tabs[lg].Store(t)
	return t
}

// fftCore performs an in-place forward DFT of length n = 1 << lg >= 2 on
// the split-complex vector (re, im). The inverse transform reuses the same
// kernel with the re and im slices swapped (conjugation trick); the caller
// divides by n.
//
//lint:hotpath
func fftCore(re, im []float64, t *fftTables, lg int) {
	n := 1 << lg
	rev := t.rev
	for i := 0; i < n; i++ {
		j := int(rev[i])
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
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
				t1r := x1r*wAr - x1i*wAi
				t1i := x1r*wAi + x1i*wAr
				u0r, u0i := re[j0], im[j0]
				a0r, a0i := u0r+t1r, u0i+t1i
				a1r, a1i := u0r-t1r, u0i-t1i
				// Stage m, butterfly (j2, j3): same in-block offset t, so
				// the same twiddle.
				x3r, x3i := re[j3], im[j3]
				t3r := x3r*wAr - x3i*wAi
				t3i := x3r*wAi + x3i*wAr
				u2r, u2i := re[j2], im[j2]
				a2r, a2i := u2r+t3r, u2i+t3i
				a3r, a3i := u2r-t3r, u2i-t3i
				// Stage 2m, butterfly (j0, j2).
				wB0r, wB0i := twr[t*strideB], twi[t*strideB]
				t2r := a2r*wB0r - a2i*wB0i
				t2i := a2r*wB0i + a2i*wB0r
				re[j0], im[j0] = a0r+t2r, a0i+t2i
				re[j2], im[j2] = a0r-t2r, a0i-t2i
				// Stage 2m, butterfly (j1, j3).
				wB1r, wB1i := twr[(t+h)*strideB], twi[(t+h)*strideB]
				t4r := a3r*wB1r - a3i*wB1i
				t4i := a3r*wB1i + a3i*wB1r
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
				tr := xr*wr - xi*wi
				ti := xr*wi + xi*wr
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

// convolve returns the linear convolution of a and b (len(a)+len(b)-1
// values) in workspace scratch. The result is valid until the next
// convolve call on ws. Small products are evaluated directly; larger ones
// go through one packed complex FFT of both real operands and one inverse.
func (ws *Workspace) convolve(a, b []float64) []float64 {
	outLen := len(a) + len(b) - 1
	if len(a)*len(b) <= convDirectThreshold {
		ws.ensureFFT(outLen)
		out := ws.fftRe[:outLen]
		convDirect(a, b, out)
		return out
	}
	lg := ceilLog2(outLen)
	n := 1 << lg
	ws.ensureFFT(n)
	re, im := ws.fftRe[:n], ws.fftIm[:n]
	copy(re, a)
	zeroFloats(re[len(a):])
	copy(im, b)
	zeroFloats(im[len(b):])
	t := fftTablesFor(lg)
	fftCore(re, im, t, lg)

	// Separate the two real spectra from the packed transform and multiply
	// pointwise, using conjugate symmetry to touch each bin pair once.
	// DC and Nyquist bins of a real signal's spectrum are real.
	re[0], im[0] = re[0]*im[0], 0
	h := n / 2
	re[h], im[h] = re[h]*im[h], 0
	for k := 1; k < h; k++ {
		k2 := n - k
		zr1, zi1 := re[k], im[k]
		zr2, zi2 := re[k2], im[k2]
		ar := (zr1 + zr2) / 2
		ai := (zi1 - zi2) / 2
		br := (zi1 + zi2) / 2
		bi := (zr2 - zr1) / 2
		cr := ar*br - ai*bi
		ci := ar*bi + ai*br
		re[k], im[k] = cr, ci
		re[k2], im[k2] = cr, -ci
	}

	// Inverse DFT via the swap trick: forward-transforming (im, re) leaves
	// the unnormalized real part of the inverse in re.
	fftCore(im, re, t, lg)
	inv := 1 / float64(n)
	out := re[:outLen]
	for i := range out {
		out[i] *= inv
	}
	return out
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
