//go:build !amd64

package prob

// cpuLanes is false off amd64: the DP leaf's and the FFT's scalar loops run
// every pass.
const cpuLanes = false

func pairLanes(f []float64, w, top, blocks int, a0, a1, a2 float64) {
	panic("prob: pairLanes called without vector lanes")
}

func singleLanes(f []float64, w, top, blocks int, p, q float64) {
	panic("prob: singleLanes called without vector lanes")
}

func fft8Lanes(re, im, w4r, w4i, w8r, w8i []float64) {
	panic("prob: fft8Lanes called without vector lanes")
}

func fftPairLanes(re, im, war, wai, wbr, wbi []float64) {
	panic("prob: fftPairLanes called without vector lanes")
}

func fftStageLanes(re, im, wr, wi []float64) {
	panic("prob: fftStageLanes called without vector lanes")
}

func fftProductLanes(re, im []float64, blocks int) {
	panic("prob: fftProductLanes called without vector lanes")
}

func scaleClampLanes(dst, src []float64, blocks int, inv float64) {
	panic("prob: scaleClampLanes called without vector lanes")
}
