package prob

import (
	"math"
	"testing"
)

func TestKolmogorovDistanceDecreasesWithN(t *testing.T) {
	// Binomial(n, 0.4) vs its normal approximation: KS distance ~ 1/sqrt(n)
	// (Berry-Esseen), so it must shrink as n grows.
	prev := 1.0
	for _, n := range []int{10, 100, 1000} {
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = 0.4
		}
		f, err := PMFNaive(appendUnitVoters(nil, ps))
		if err != nil {
			t.Fatal(err)
		}
		var st SumStats
		st.AddUnits(ps)
		d := KolmogorovDistanceToNormal(f, Normal{Mu: st.Mean(), Sigma: math.Sqrt(st.Variance())})
		if d >= prev {
			t.Fatalf("KS distance did not shrink at n=%d: %v >= %v", n, d, prev)
		}
		prev = d
	}
	if prev > 0.02 {
		t.Fatalf("KS distance at n=1000 should be tiny, got %v", prev)
	}
}

func TestKolmogorovDistanceDegenerate(t *testing.T) {
	// Point mass at 0 vs a wide normal: distance ~ 0.5 at the step.
	d := KolmogorovDistanceToNormal([]float64{1}, Normal{Mu: 0, Sigma: 10})
	if d < 0.4 {
		t.Fatalf("point-mass distance = %v, want large", d)
	}
}

func TestTotalVariation(t *testing.T) {
	tests := []struct {
		p, q []float64
		want float64
	}{
		{[]float64{1, 0}, []float64{1, 0}, 0},
		{[]float64{1, 0}, []float64{0, 1}, 1},
		{[]float64{0.5, 0.5}, []float64{0.25, 0.75}, 0.25},
		{[]float64{1}, []float64{0.5, 0.5}, 0.5}, // padding
		{nil, nil, 0},
	}
	for _, tt := range tests {
		if got := TotalVariation(tt.p, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("TV(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestTotalVariationSymmetric(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	q := []float64{0.5, 0.25, 0.25}
	if TotalVariation(p, q) != TotalVariation(q, p) {
		t.Fatal("TV must be symmetric")
	}
}
