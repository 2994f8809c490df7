package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A tail is the highest one that still has at least minBeyond
// samples beyond it, so it is never read off a handful of points.
var tailLadder = []float64{0.99, 0.90, 0.50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailQuantile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond it, or 1 (the maximum) when the
// sample is too small for any of them.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-1-rankIndex(n, q) >= minBeyond {
			return q
		}
	}
	return 1
}

// tail returns the tail latency of sorted and the percentile it was read
// at.
func tail(sorted []float64) (value, q float64) {
	q = tailQuantile(len(sorted))
	return percentile(sorted, q), q
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (the nearest-rank p50 for odd lengths, the mean of the two
// middle samples for even ones, as Python's statistics.median).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the benchmark's spread rule is defined. It needs
// at least two samples; with fewer, every quartile is the lone value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, m-1] before computing delta, so a short
		// sample extrapolates from its two end points.
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// fastQuartile reads a metric measured once per round at the quartile on
// its better side: Q1 of the rounds when lower is better, Q3 when higher
// is. Interference from other tenants of a shared host only ever slows the
// program down, and it comes in bursts of a second or two; the better
// quartile is what the program does in a run's quieter rounds, which
// nearly every run has, so a burst moves it only when it covers most of
// the run.
func fastQuartile(perRound []float64, lower bool) float64 {
	q1, _, q3 := quartiles(perRound)
	if lower {
		return q1
	}
	return q3
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
