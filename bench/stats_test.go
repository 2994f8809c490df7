package main

import (
	"math"
	"testing"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 1}, {19, 1}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {109, 0.9}, {110, 0.9}, {999, 0.9}, {1000, 0.99}, {24000, 0.99},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q < 1 {
			if beyond := tc.n - 1 - rankIndex(tc.n, q); beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it", tc.n, 100*q, beyond)
			}
		}
	}
}

func TestTailReadsTheChosenPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := tail(xs)
	if q != 0.99 || v != 990 {
		t.Fatalf("tail = %v at p%g, want 990 at p99", v, 100*q)
	}
	if v, q := tail(xs[:5]); q != 1 || v != 5 {
		t.Fatalf("tail of 5 samples = %v at p%g, want the maximum", v, 100*q)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{10, 1, 4, 7}, 1.75, 5.5, 9.25, 5.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{2, 1}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{4}, 4, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
	if lo, hi := fastQuartile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true), fastQuartile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, false); lo != 2.75 || hi != 8.25 {
		t.Errorf("fastQuartile = %v (lower better), %v (higher better), want Q1 2.75 and Q3 8.25", lo, hi)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
	if !math.IsInf(spread([]float64{0, 0}), 1) {
		t.Error("spread around a zero median is not +Inf")
	}
}
