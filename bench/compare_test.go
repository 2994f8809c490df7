package main

import (
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "p50_ms", unit: "ms", lower: true, bound: 0.1}
	higher := metricDef{name: "sat_rps", unit: "1/s", bound: 0.1}
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base * (1 + 0.001*float64(i%3))
		}
		return xs
	}
	alternate := make([]bool, 10)
	for i := range alternate {
		alternate[i] = i%2 == 0
	}
	for _, tc := range []struct {
		name    string
		d       metricDef
		a, b    []float64
		order   []bool
		verdict string
		claim   string
	}{
		{"same", lower, steady(10), steady(10.02), alternate, "within bound", "no gain"},
		{"slower", lower, steady(10), append(steady(11.5)[:9], 9), alternate, "REGRESSION", "no gain"},
		{"lower throughput", higher, steady(100), append(steady(85)[:9], 101), alternate, "REGRESSION", "no gain"},
		{"every run faster", lower, steady(10), steady(8), alternate, "better in every run", "gain: B won 10/10"},
		{"noisy", lower, []float64{5, 10, 15, 20, 5, 10, 15, 20, 5, 10}, steady(10), alternate, "unresolved", "no gain"},
		{"too few pairs", lower, steady(10)[:4], steady(8)[:4], alternate[:4], "better in every run", "no claim: 4 pairs"},
		{"not alternated", lower, steady(10), steady(8), make([]bool, 10), "better in every run", "no claim: pairs did not alternate"},
	} {
		c := compareMetric(tc.d, tc.a, tc.b, tc.order)
		if c.verdict != tc.verdict || !strings.HasPrefix(c.claim, tc.claim) {
			t.Errorf("%s: verdict %q claim %q, want %q and %q", tc.name, c.verdict, c.claim, tc.verdict, tc.claim)
		}
	}
}

func TestAlternating(t *testing.T) {
	if !alternating([]bool{true, false, true}) || alternating([]bool{true, true}) || !alternating(nil) {
		t.Fatal("alternating")
	}
}
