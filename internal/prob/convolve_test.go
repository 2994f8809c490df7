package prob

import (
	"context"
	"math"
	"sort"
	"testing"

	"liquid/internal/rng"
)

// naiveDFT is the O(n^2) reference transform for validating fftCore.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outR := make([]float64, n)
	outI := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si Accumulator
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			sr.Add(re[j]*c - im[j]*s)
			si.Add(re[j]*s + im[j]*c)
		}
		outR[k], outI[k] = sr.Sum(), si.Sum()
	}
	return outR, outI
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	s := rng.New(41)
	for lg := 1; lg <= 8; lg++ {
		n := 1 << lg
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = s.Float64() - 0.5
			im[i] = s.Float64() - 0.5
		}
		wantR, wantI := naiveDFT(re, im)
		fftCore(re, im, fftTablesFor(lg), lg)
		for i := range re {
			if math.Abs(re[i]-wantR[i]) > 1e-9 || math.Abs(im[i]-wantI[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: got (%g,%g) want (%g,%g)", n, i, re[i], im[i], wantR[i], wantI[i])
			}
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(43)
	for _, sizes := range [][2]int{{1, 1}, {1, 7}, {5, 5}, {33, 64}, {100, 300}, {517, 291}} {
		a := make([]float64, sizes[0])
		b := make([]float64, sizes[1])
		for i := range a {
			a[i] = s.Float64()
		}
		for i := range b {
			b[i] = s.Float64()
		}
		want := make([]float64, len(a)+len(b)-1)
		convDirect(a, b, want)
		got := ws.convolve(a, b)
		if len(got) != len(want) {
			t.Fatalf("sizes %v: got length %d, want %d", sizes, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(len(want)) {
				t.Fatalf("sizes %v: index %d: got %g want %g", sizes, i, got[i], want[i])
			}
		}
	}
}

// TestClassifyExactTierMatchesEngineRoot pins ClassifyExactTier to the
// engine's own root decision on n unit-weight voters, and the split gain's
// closed form to its definition: the quadratic DP's cost of the segment
// minus the costs of its two halves.
func TestClassifyExactTierMatchesEngineRoot(t *testing.T) {
	pw := make([]int64, 5001)
	for i := range pw {
		pw[i] = int64(i)
	}
	for n := 1; n <= 5000; n++ {
		mid, leaf := dcSplit(pw[:n+1], 0, n)
		if got := ClassifyExactTier(n); (got == TierExact) != leaf {
			t.Fatalf("n=%d: ClassifyExactTier = %v, engine root leaf = %v", n, got, leaf)
		}
		if n >= 2 && mid != n/2 {
			t.Fatalf("n=%d: unit-weight root splits at %d, want %d", n, mid, n/2)
		}
	}
	dpCost := func(pw []int64, lo, hi int) int64 {
		var c int64
		for i := lo; i < hi; i++ {
			c += pw[i+1] - pw[lo]
		}
		return c
	}
	s := rng.New(61)
	for trial := 0; trial < 500; trial++ {
		voters := randomVoters(dcMinLeaf+s.IntN(400), 1+s.IntN(50), s)
		pw := NewWorkspace().prefixWeights(voters)
		n := len(voters)
		mid, leaf := dcSplit(pw, 0, n)
		gain := dpCost(pw, 0, n) - dpCost(pw, 0, mid) - dpCost(pw, mid, n)
		if want := dcLeaf(n, int(pw[n]), gain); leaf != want {
			t.Fatalf("trial %d (n=%d): leaf = %v, DP-cost definition says %v", trial, n, leaf, want)
		}
	}
}

// FuzzConvolutionEquivalence feeds arbitrary voter encodings through the
// convolution engine and requires total-variation agreement with the naive
// DP, plus bit-identity across fork-join worker budgets, where the engine
// promises it. Wired into the `make check` fuzz-smoke stage.
func FuzzConvolutionEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(10), uint8(4))
	f.Add(uint64(7), uint16(300), uint8(1))
	f.Add(uint64(42), uint16(600), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, maxW uint8) {
		nv := int(n)%800 + 1
		mw := int(maxW)%32 + 1
		s := rng.New(seed)
		voters := make([]WeightedVoter, nv)
		for i := range voters {
			voters[i] = WeightedVoter{Weight: 1 + s.IntN(mw), P: s.Float64()}
		}
		f, err := NewWorkspace().PMF(voters)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := PMFNaive(voters)
		if err != nil {
			t.Fatal(err)
		}
		if tv := TotalVariation(f, naive); tv > 1e-9 {
			t.Fatalf("seed=%d n=%d maxW=%d: TV %g > 1e-9", seed, nv, mw, tv)
		}
		for _, workers := range []int{2, 4} {
			got, err := NewWorkspace().pmf(context.Background(), voters, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(f, got) {
				t.Fatalf("seed=%d n=%d maxW=%d: %d workers differ from sequential", seed, nv, mw, workers)
			}
		}
	})
}

func TestDeltaUpdateCost(t *testing.T) {
	if c := DeltaUpdateCost(0); c != 1 {
		t.Fatalf("DeltaUpdateCost(0) = %d, want 1", c)
	}
	prev := int64(0)
	for _, w := range []int{1, 10, 100, 2000, 20000} {
		c := DeltaUpdateCost(w)
		if c <= 0 || c < prev {
			t.Fatalf("DeltaUpdateCost(%d) = %d not positive/monotone", w, c)
		}
		prev = c
	}
	// The delta price must stay well under the full evaluation cost for
	// large n — otherwise the serving cost class would never prefer deltas.
	if full, delta := WeightedMajorityDPCost(2000, 2000), DeltaUpdateCost(2000); delta*10 > full {
		t.Fatalf("DeltaUpdateCost(2000)=%d not <= 1/10 of DP cost %d", delta, full)
	}
}

// lanesMatchScalar runs the DP leaf over voters with and without the vector
// lanes, into buffers prefilled with NaN so a skipped lane shows, and
// reports the first differing index, or -1 when the PMFs agree bit for bit.
func lanesMatchScalar(voters []WeightedVoter) int {
	total := 0
	for _, v := range voters {
		total += v.Weight
	}
	got := make([]float64, total+1)
	want := make([]float64, total+1)
	for i := range got {
		got[i], want[i] = math.NaN(), math.NaN()
	}
	dpIntoLanes(got, voters, true)
	dpIntoLanes(want, voters, false)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// approvalRealization draws one approval-threshold resolution on K_n: with
// competencies p ~ U[0.3, 0.8) and a margin alpha in (0, 0.2), every voter
// with an approved voter (p_j >= p_i + alpha) delegates to a uniformly
// random one, and the sinks' (weight, p) pairs come back in the canonical
// (weight, p) order the engine scores in.
func approvalRealization(s *rng.Stream, n int, ws *Workspace) []WeightedVoter {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.3 + 0.5*s.Float64()
	}
	sort.Float64s(ps)
	alpha := 0.2 * (1 - s.Float64())
	// Every delegation climbs to a strictly higher competency, so a
	// descending pass has each delegate's sink before its delegators.
	sink := make([]int, n)
	weight := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		lo := sort.SearchFloat64s(ps, ps[i]+alpha)
		sink[i] = i
		if lo < n {
			sink[i] = sink[lo+s.IntN(n-lo)]
		}
		weight[sink[i]]++
	}
	voters := ws.VoterBuffer(n)
	maxW := 0
	for i, w := range weight {
		if w > 0 {
			voters = append(voters, WeightedVoter{Weight: w, P: ps[i]})
			maxW = max(maxW, w)
		}
	}
	return ws.SortVotersByWeight(voters, maxW)
}

// TestDPIntoLanesMatchScalar pins the vector lanes to the scalar leaf bit
// for bit: for every weight class, pass lengths at every remainder mod 4
// (a leading voter of each weight in 0..8 shifts the passes), pairs and a
// trailing single, edge probabilities, and whole approval-threshold
// realizations at n = 2000.
func TestDPIntoLanesMatchScalar(t *testing.T) {
	if !fmaLanes {
		t.Skip("this CPU runs the scalar leaf only: no AVX and FMA lanes to compare")
	}
	s := rng.New(24)
	// Two of every three voters of a weight class take the edge
	// probability, so pairs see (edge, edge), (edge, uniform) and
	// (uniform, edge); -1 draws them all uniformly.
	edges := []float64{0, 1, 0.5, 1e-300, -1}
	for _, w := range []int{1, 2, 3, 4, 5, 8, 40} {
		for lead := 0; lead <= 8; lead++ {
			if lead == w {
				continue
			}
			for _, k := range []int{1, 2, 3, 7, 12} {
				for _, pe := range edges {
					var voters []WeightedVoter
					if lead > 0 {
						voters = append(voters, WeightedVoter{Weight: lead, P: s.Float64()})
					}
					for i := 0; i < k; i++ {
						p := pe
						if p < 0 || i%3 == 2 {
							p = s.Float64()
						}
						voters = append(voters, WeightedVoter{Weight: w, P: p})
					}
					if i := lanesMatchScalar(voters); i >= 0 {
						t.Fatalf("w=%d lead=%d k=%d p=%g: lanes differ from scalar at %d", w, lead, k, pe, i)
					}
				}
			}
		}
	}
	ws := NewWorkspace()
	for r := 0; r < 4; r++ {
		voters := approvalRealization(s, 2000, ws)
		if i := lanesMatchScalar(voters); i >= 0 {
			t.Fatalf("realization %d (%d sinks): lanes differ from scalar at %d", r, len(voters), i)
		}
	}
}

// FuzzDPIntoLanesMatchScalar draws voter sets of 1–70 voters with weights up
// to 40, runs of equal weights (so pairs form) and probabilities from
// {0, 1, 1e-300, uniform}, and requires the vector lanes to match the
// scalar leaf bit for bit. Wired into the `make check` fuzz-smoke stage.
func FuzzDPIntoLanesMatchScalar(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(4))
	f.Add(uint64(2), uint8(69), uint8(1))
	f.Add(uint64(3), uint8(40), uint8(39))
	f.Fuzz(func(t *testing.T, seed uint64, n, maxW uint8) {
		if !fmaLanes {
			t.Skip("this CPU runs the scalar leaf only: no AVX and FMA lanes to compare")
		}
		nv := int(n)%70 + 1
		mw := int(maxW)%40 + 1
		s := rng.New(seed)
		voters := make([]WeightedVoter, nv)
		w := 1 + s.IntN(mw)
		for i := range voters {
			if s.IntN(2) == 0 {
				w = 1 + s.IntN(mw)
			}
			p := s.Float64()
			switch s.IntN(4) {
			case 0:
				p = 0
			case 1:
				p = 1
			case 2:
				p = 1e-300
			}
			voters[i] = WeightedVoter{Weight: w, P: p}
		}
		if i := lanesMatchScalar(voters); i >= 0 {
			t.Fatalf("seed=%d n=%d maxW=%d: lanes differ from scalar at %d", seed, nv, mw, i)
		}
	})
}
