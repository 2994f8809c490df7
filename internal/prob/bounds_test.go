package prob

import (
	"math"
	"testing"

	"liquid/internal/rng"
)

// unitStats accumulates unit-weight SumStats over ps.
func unitStats(ps []float64) *SumStats {
	var st SumStats
	for _, p := range ps {
		st.Add(1, p)
	}
	return &st
}

// TestBerryEsseenBoundCertifiesPoissonBinomial holds SumStats.BerryEsseen,
// and with it berryEsseenC, to the exact Poisson-binomial majority tail.
func TestBerryEsseenBoundCertifiesPoissonBinomial(t *testing.T) {
	s := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		n := 20 + s.IntN(200)
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = 0.05 + 0.9*s.Float64()
		}
		f, err := PMFNaive(appendUnitVoters(nil, ps))
		if err != nil {
			t.Fatal(err)
		}
		exact := MajorityMass(f)
		st := unitStats(ps)
		// P[S > n/2] = P[S >= floor(n/2)+1]; the approximation evaluates the
		// survival function at the majority threshold.
		approx := Normal{Mu: st.Mean(), Sigma: math.Sqrt(st.Variance())}.SF(float64(n) / 2)
		bound := st.BerryEsseen()
		if diff := math.Abs(exact - approx); diff > bound {
			t.Fatalf("n=%d: |exact-approx| = %g exceeds certified bound %g", n, diff, bound)
		}
	}
}

// TestBerryEsseenWeightedBoundCertifiesWeightedMajority is the weighted
// counterpart: SumStats.BerryEsseen over (weight, p) terms against the exact
// weighted-majority tail.
func TestBerryEsseenWeightedBoundCertifiesWeightedMajority(t *testing.T) {
	s := rng.New(43)
	for trial := 0; trial < 20; trial++ {
		k := 10 + s.IntN(60)
		voters := make([]WeightedVoter, k)
		var st SumStats
		total := 0
		for i := range voters {
			w := 1 + s.IntN(4)
			p := 0.1 + 0.8*s.Float64()
			voters[i] = WeightedVoter{Weight: w, P: p}
			st.Add(float64(w), p)
			total += w
		}
		f, err := PMFNaive(voters)
		if err != nil {
			t.Fatal(err)
		}
		exact := MajorityMass(f)
		approx := Normal{Mu: st.Mean(), Sigma: math.Sqrt(st.Variance())}.SF(float64(total) / 2)
		bound := st.BerryEsseen()
		if diff := math.Abs(exact - approx); diff > bound {
			t.Fatalf("k=%d: |exact-approx| = %g exceeds certified bound %g", k, diff, bound)
		}
	}
}

func TestBerryEsseenBoundDegenerate(t *testing.T) {
	if b := unitStats(nil).BerryEsseen(); b != 1 {
		t.Fatalf("empty bound = %g, want trivial 1", b)
	}
	if b := unitStats([]float64{0, 1, 0, 1}).BerryEsseen(); b != 1 {
		t.Fatalf("zero-variance bound = %g, want trivial 1", b)
	}
	if b := unitStats(make([]float64, 5000)).BerryEsseen(); b != 1 {
		t.Fatalf("all-zero bound = %g, want trivial 1", b)
	}
	// A large balanced electorate has a tiny certified error.
	ps := make([]float64, 4000)
	for i := range ps {
		ps[i] = 0.5
	}
	if b := unitStats(ps).BerryEsseen(); b <= 0 || b > 0.01 {
		t.Fatalf("n=4000 balanced bound = %g, want small positive", b)
	}
}

func TestDPCostHelpers(t *testing.T) {
	if c := PoissonBinomialDPCost(0); c != 0 {
		t.Fatalf("PB cost(0) = %d", c)
	}
	if c := PoissonBinomialDPCost(100); c != 5050 {
		t.Fatalf("PB cost(100) = %d, want 5050", c)
	}
	if c := WeightedMajorityDPCost(10, 50); c != 500 {
		t.Fatalf("WM cost(10,50) = %d, want 500", c)
	}
	if c := WeightedMajorityDPCost(-1, 50); c != 0 {
		t.Fatalf("WM cost(-1,50) = %d, want 0", c)
	}
}
