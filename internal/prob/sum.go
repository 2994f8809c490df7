package prob

import "math"

// Accumulator is a compensated (Kahan–Babuška–Neumaier) float64 summer: it
// tracks the rounding error of every addition in a correction term and folds
// it back in at read time. Unlike naive `s += x`, the result is stable to
// the last few ulps regardless of operand magnitudes, which keeps reported
// table values independent of refactorings that merely reassociate a
// reduction. The floatacc analyzer steers all loop accumulation in this
// package and internal/recycle here (or to Summary for moments).
//
// The zero value is an empty sum, ready to use.
type Accumulator struct {
	sum float64
	c   float64 // running compensation for lost low-order bits
}

// Add incorporates x into the sum.
func (a *Accumulator) Add(x float64) { *a = a.plus(x) }

// plus returns a with x incorporated, so kernels can keep running sums in
// registers (a local whose address is taken cannot stay in one).
func (a Accumulator) plus(x float64) Accumulator {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
	return a
}

// Sum returns the compensated total.
func (a *Accumulator) Sum() float64 { return a.sum + a.c }

// Sum returns the compensated sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.Sum()
}
