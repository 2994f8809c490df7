package prob

// The FFT's vector lanes (fft_amd64.s), which fftStages and
// Workspace.convolve run when their lanes argument is set: cpuLanes, in the
// engine. Each lane performs the scalar loops' IEEE operations in their
// order, so the bits do not depend on the lanes. No kernel checks bounds:
// the callers size every slice.

// fft8Lanes runs the size-2, 4 and 8 stages over each block of eight points
// of (re, im), in bit-reversed order, with (w4r, w4i) and (w8r, w8i) the
// twiddle tables of sizes 4 and 8. len(re) = len(im) is a multiple of 8.
//
//go:noescape
func fft8Lanes(re, im, w4r, w4i, w8r, w8i []float64)

// fftPairLanes runs the stages of sizes m and 2m in one pass, four
// butterflies of each at a time, with (war, wai) the size-m table (m/2
// entries, a multiple of 4) and (wbr, wbi) the size-2m table. len(re) =
// len(im) is a multiple of 2m.
//
//go:noescape
func fftPairLanes(re, im, war, wai, wbr, wbi []float64)

// fftStageLanes runs the stage of size len(re), four butterflies at a time,
// with (wr, wi) the table of that size: len(re)/2 entries, a multiple of 4.
//
//go:noescape
func fftStageLanes(re, im, wr, wi []float64)

// fftProductLanes runs blocks blocks of four bins of convolve's packed
// spectrum product: bins 1 to 4*blocks, and their mirrors n-k with
// n = len(re). The caller guarantees 4*blocks < n/2.
//
//go:noescape
func fftProductLanes(re, im []float64, blocks int)

// scaleClampLanes runs blocks blocks of four lanes of convolve's last pass:
// dst[i] = src[i]*inv, or +0 where that is below 0.
//
//go:noescape
func scaleClampLanes(dst, src []float64, blocks int, inv float64)
