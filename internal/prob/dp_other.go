//go:build !amd64

package prob

// fmaLanes is false off amd64: the DP leaf's scalar loops run every pass.
const fmaLanes = false

func pairLanes(f []float64, w, top, blocks int, a0, a1, a2 float64) {
	panic("prob: pairLanes called without vector lanes")
}

func singleLanes(f []float64, w, top, blocks int, p, q float64) {
	panic("prob: singleLanes called without vector lanes")
}
