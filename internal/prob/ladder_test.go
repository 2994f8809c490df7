package prob

import (
	"context"
	"errors"
	"math"
	"testing"

	"liquid/internal/rng"
)

// ladderSeq builds a deterministic test sequence of n probabilities in
// [lo, hi) from a derived seed.
func ladderSeq(n int, lo, hi float64, seed uint64) SliceSeq {
	s := rng.New(seed)
	return SliceSeq(randomPs(n, lo, hi, s))
}

// ladderRun forces one tier and fails the test on error.
func ladderRun(t *testing.T, seq Seq, opts LadderOptions) CertifiedInterval {
	t.Helper()
	ci, err := LadderMajority(context.Background(), seq, opts)
	if err != nil {
		t.Fatalf("LadderMajority(%+v): %v", opts, err)
	}
	return ci
}

// TestLadderMetamorphicContainment is the ladder's core soundness property,
// metamorphic across tiers: for the same instance, every cheaper tier's
// certified interval must contain the exact value computed by the tier above
// it (TierExact is the zero-error reference, so "the exact value" is its
// point). Table-driven over instance shapes; every case seeds via rng.Derive
// so the table is stable and extensible without seed collisions.
func TestLadderMetamorphicContainment(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		lo, hi float64
	}{
		{"tiny", 3, 0.2, 0.9},
		{"smallBalanced", 40, 0.4, 0.6},
		{"dpLeaf", 200, 0.3, 0.7},
		{"atCrossover", 512, 0.25, 0.75},
		{"fftRoot", 900, 0.1, 0.9},
		{"skewedLow", 300, 0.05, 0.35},
		{"skewedHigh", 300, 0.65, 0.95},
		{"nearDeterministic", 150, 0.97, 0.999},
		{"wide", 1200, 0.01, 0.99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := ladderSeq(tc.n, tc.lo, tc.hi, rng.Derive(3, "ladder", "metamorphic", tc.name))
			exact := ladderRun(t, seq, LadderOptions{Force: TierExact})
			if exact.HalfWidth != 0 || exact.Tier != TierExact {
				t.Fatalf("exact tier: half-width %v tier %v", exact.HalfWidth, exact.Tier)
			}
			fft := ladderRun(t, seq, LadderOptions{Force: TierFFT})
			if fft.Tier != TierFFT && fft.Tier != TierExact {
				t.Fatalf("fft tier label %v", fft.Tier)
			}
			if !fft.Contains(exact.Point) {
				t.Errorf("FFT interval [%v, %v] does not contain exact %v", fft.Lo(), fft.Hi(), exact.Point)
			}
			normal := ladderRun(t, seq, LadderOptions{Force: TierNormal})
			if normal.Tier != TierNormal {
				t.Fatalf("normal tier label %v", normal.Tier)
			}
			if !normal.Contains(exact.Point) {
				t.Errorf("normal interval [%v, %v] (±%v) does not contain exact %v",
					normal.Lo(), normal.Hi(), normal.HalfWidth, exact.Point)
			}
			// The next rung up must also land inside the cheaper certificate:
			// the FFT point differs from exact by at most its own budget.
			if !normal.Contains(fft.Point) && math.Abs(fft.Point-exact.Point) <= FFTTierErrorBudget {
				t.Errorf("normal interval [%v, %v] does not contain FFT point %v", normal.Lo(), normal.Hi(), fft.Point)
			}
			if math.Abs(fft.Point-exact.Point) > FFTTierErrorBudget {
				t.Errorf("FFT point %v differs from exact %v beyond the tier budget", fft.Point, exact.Point)
			}
		})
	}
}

// TestLadderAutoSelection pins the tier-selection rule: generous budgets stay
// on the streaming tier, tight budgets escalate to the kernels, and budgets
// no tier can certify within the exact tiers' size cap surface
// ErrBudgetInfeasible alongside the tightest interval available.
func TestLadderAutoSelection(t *testing.T) {
	ctx := context.Background()
	seq := ladderSeq(2000, 0.3, 0.6, rng.Derive(3, "ladder", "auto"))

	// Mean well below the threshold: Hoeffding certifies a tiny half-width,
	// so a loose budget keeps the O(n) tier.
	ci, err := LadderMajority(ctx, seq, LadderOptions{ErrorBudget: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if ci.Tier != TierNormal {
		t.Fatalf("loose budget escalated to %v", ci.Tier)
	}
	if ci.HalfWidth > 1e-2 {
		t.Fatalf("normal half-width %v over budget", ci.HalfWidth)
	}

	// A budget below what the normal tier certifies escalates to the kernel;
	// at n=2000 the root splits, so the label is TierFFT.
	ci, err = LadderMajority(ctx, seq, LadderOptions{ErrorBudget: 5e-13})
	if err == nil || errors.Is(err, ErrBudgetInfeasible) {
		// A sub-FFT-budget request is infeasible on the kernel tiers too —
		// both outcomes must still hand back the kernel interval.
	} else {
		t.Fatal(err)
	}
	if ci.Tier != TierFFT {
		t.Fatalf("tight budget ran %v, want fft", ci.Tier)
	}

	// No budget at all demands the most precise affordable tier.
	ci, err = LadderMajority(ctx, seq, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ci.Tier != TierFFT {
		t.Fatalf("no-budget selection ran %v, want fft", ci.Tier)
	}

	// Small n with no budget is the pure DP.
	small := ladderSeq(100, 0.3, 0.6, rng.Derive(3, "ladder", "auto", "small"))
	ci, err = LadderMajority(ctx, small, LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ci.Tier != TierExact || ci.HalfWidth != 0 {
		t.Fatalf("small no-budget selection ran %v (±%v), want exact ±0", ci.Tier, ci.HalfWidth)
	}

	// Beyond maxExactN the ladder must refuse to materialise: the streaming
	// interval comes back with ErrBudgetInfeasible. The competencies centre
	// on 1/2, so the normal tier's half-width is far above the budget.
	big := ladderSeq(maxExactN+1, 0.4, 0.6, rng.Derive(3, "ladder", "auto", "big"))
	ci, err = LadderMajority(ctx, big, LadderOptions{ErrorBudget: 1e-15})
	if !errors.Is(err, ErrBudgetInfeasible) {
		t.Fatalf("err = %v, want ErrBudgetInfeasible", err)
	}
	if ci.Tier != TierNormal || ci.HalfWidth <= 0 {
		t.Fatalf("degraded interval %+v, want normal tier with positive half-width", ci)
	}
}

// TestCertifyMajorityDeterministic checks the degenerate rung: an electorate
// of certainties has zero variance and certifies exactly with half-width 0.
func TestCertifyMajorityDeterministic(t *testing.T) {
	var st SumStats
	for i := 0; i < 9; i++ {
		st.Add(1, float64(i%2)) // 4 certain ones: S = 4 always
	}
	ci := CertifyMajority(&st, 4)
	if ci.HalfWidth != 0 {
		t.Fatalf("half-width %v, want 0", ci.HalfWidth)
	}
	if ci.Point != 0 { // S = 4 always, P[S > 4] = 0
		t.Fatalf("point %v, want 0", ci.Point)
	}
	st = SumStats{}
	for i := 0; i < 9; i++ {
		st.Add(1, 1)
	}
	ci = CertifyMajority(&st, 4)
	if ci.HalfWidth != 0 || ci.Point != 1 {
		t.Fatalf("got %+v, want point 1 half-width 0", ci)
	}
}

// TestCertifyMajorityWeighted holds the weighted certificate to the exact
// weighted-majority DP: resolved sink multisets are what the scale tier
// feeds through SumStats, so the interval must contain the exact weighted
// tail mass, not just the unit-weight one.
func TestCertifyMajorityWeighted(t *testing.T) {
	s := rng.New(rng.Derive(3, "ladder", "weighted"))
	for trial := 0; trial < 30; trial++ {
		nv := 5 + s.IntN(60)
		voters := make([]WeightedVoter, nv)
		total := 0
		var st SumStats
		for i := range voters {
			v := WeightedVoter{Weight: 1 + s.IntN(9), P: s.Float64()}
			voters[i] = v
			total += v.Weight
			st.Add(float64(v.Weight), v.P)
		}
		wm, err := NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		f := wm.PMFNaive()
		exact := Sum(f[total/2+1:])
		ci := CertifyMajority(&st, float64(total/2))
		if !ci.Contains(exact) {
			t.Fatalf("trial %d: interval [%v, %v] does not contain exact %v", trial, ci.Lo(), ci.Hi(), exact)
		}
	}
}

// TestCertifyMajorityWithinBerryEsseen: S is integer-valued, so the
// Berry–Esseen band around the lattice point k = ⌊threshold⌋ bounds the
// normal tier's half-width by BerryEsseen() (plus the certify slack on each
// side), whatever the Hoeffding tail does, and the interval still contains
// the exact tail mass. Unit and delegation-weighted sums, with the mean
// below, at and above the threshold.
func TestCertifyMajorityWithinBerryEsseen(t *testing.T) {
	s := rng.New(rng.Derive(3, "ladder", "lattice"))
	for _, n := range []int{1, 2, 25, 101, 500, 2000} {
		for _, lo := range []float64{0.05, 0.3, 0.45, 0.7} {
			for _, weighted := range []bool{false, true} {
				voters := make([]WeightedVoter, n)
				var st SumStats
				total := 0
				for i := range voters {
					voters[i] = WeightedVoter{Weight: 1, P: lo + 0.25*s.Float64()}
					if weighted {
						voters[i].Weight += s.IntN(1 + s.IntN(12))
					}
					st.Add(float64(voters[i].Weight), voters[i].P)
					total += voters[i].Weight
				}
				wm, err := NewWeightedMajority(voters)
				if err != nil {
					t.Fatal(err)
				}
				f := wm.PMFNaive()
				exact := clamp01(Sum(f[total/2+1:]))
				ci := CertifyMajority(&st, float64(total/2))
				if bound := st.BerryEsseen() + 2*certifySlack; ci.HalfWidth > bound {
					t.Errorf("n=%d p in [%v, %v) weighted=%v: half-width %v over the Berry–Esseen bound %v",
						n, lo, lo+0.25, weighted, ci.HalfWidth, bound)
				}
				if !ci.Contains(exact) {
					t.Errorf("n=%d p in [%v, %v) weighted=%v: interval [%v, %v] does not contain exact %v",
						n, lo, lo+0.25, weighted, ci.Lo(), ci.Hi(), exact)
				}
			}
		}
	}
}

// TestSumStatsMergeOrdered pins the parallel-fold determinism rule: merging
// per-chunk partials in chunk index order reproduces itself bit-for-bit, and
// stays within float tolerance of the single-pass fold (compensated sums are
// not associative, which is exactly why the merge order is part of the
// contract).
func TestSumStatsMergeOrdered(t *testing.T) {
	s := rng.New(rng.Derive(3, "ladder", "merge"))
	const n, chunk = 1000, 64
	ws := make([]float64, n)
	ps := make([]float64, n)
	var seq SumStats
	for i := range ps {
		ws[i] = float64(1 + s.IntN(20))
		ps[i] = s.Float64()
		seq.Add(ws[i], ps[i])
	}
	merged := func() SumStats {
		var out SumStats
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			var part SumStats
			for i := lo; i < hi; i++ {
				part.Add(ws[i], ps[i])
			}
			out.Merge(&part)
		}
		return out
	}
	a, b := merged(), merged()
	if math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) ||
		math.Float64bits(a.Variance()) != math.Float64bits(b.Variance()) ||
		math.Float64bits(a.BerryEsseen()) != math.Float64bits(b.BerryEsseen()) {
		t.Fatal("ordered merge is not deterministic")
	}
	if a.N() != seq.N() {
		t.Fatalf("N %d != %d", a.N(), seq.N())
	}
	if math.Abs(a.Mean()-seq.Mean()) > 1e-9 || math.Abs(a.Variance()-seq.Variance()) > 1e-9 {
		t.Fatalf("merged moments (%v, %v) diverge from sequential (%v, %v)",
			a.Mean(), a.Variance(), seq.Mean(), seq.Variance())
	}
}

// TestSumStatsAddUnits pins the moment blocks' kernel to Add: AddUnits
// performs Add(1, p)'s operations term by term, so the sums are
// bit-identical, starting from an empty or a non-empty SumStats.
func TestSumStatsAddUnits(t *testing.T) {
	s := rng.New(rng.Derive(3, "ladder", "batch"))
	for trial := 0; trial < 20; trial++ {
		ps := make([]float64, s.IntN(3000))
		for i := range ps {
			ps[i] = s.Float64()
		}
		var start SumStats
		start.Add(float64(s.IntN(7)), s.Float64())
		got, want := start, start
		got.AddUnits(ps)
		for _, p := range ps {
			want.Add(1, p)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): AddUnits %+v, Add gives %+v", trial, len(ps), got, want)
		}
	}
}

// TestParallelWorkerBudget pins the cost-model worker rule.
func TestParallelWorkerBudget(t *testing.T) {
	cases := []struct {
		n, max, want int
	}{
		{10, 8, 1},    // below dcMinLeaf: DP leaf, nothing to fork
		{256, 8, 1},   // DP-leaf root at the crossover's near side
		{2048, 8, 2},  // two forkable subtrees
		{20000, 8, 8}, // capped at max
		{20000, 0, 1}, // max < 1 clamps to 1
		{100000, 64, 64},
	}
	for _, tc := range cases {
		if got := ParallelWorkerBudget(tc.n, tc.max); got != tc.want {
			t.Errorf("ParallelWorkerBudget(%d, %d) = %d, want %d", tc.n, tc.max, got, tc.want)
		}
	}
}

// TestLadderCostEstimate pins the admission pricing shape: free for empty
// queries, O(n) when a realistic budget keeps a large query on the streaming
// tier, kernel-priced when the size or a zero budget forces escalation.
func TestLadderCostEstimate(t *testing.T) {
	if got := LadderCostEstimate(0, 1e-3); got != 0 {
		t.Fatalf("empty query costs %d", got)
	}
	large := LadderCostEstimate(1_000_000, 1e-3)
	if large != 1_000_000 {
		t.Fatalf("budgeted large query costs %d, want the streaming pass", large)
	}
	if exact := LadderCostEstimate(1_000_000, 0); exact <= large {
		t.Fatalf("no-budget large query costs %d, want kernel-priced > %d", exact, large)
	}
	small := LadderCostEstimate(2000, 1e-3)
	if small <= 2000 {
		t.Fatalf("small query costs %d, want kernel tier included", small)
	}
}

// FuzzLadderSoundness drives random instances, thresholds shifted by random
// competency skews, and random error budgets through every ladder path and
// requires the one inviolable property: whatever tier auto-selection lands
// on, the certified interval contains the exact DP answer. weights gives the
// voters weights 1–9 (cycled; empty is all unit weights), and the weighted
// sum — the shape P^M is scored in — goes through Certify with the exact
// weighted DP as its exact tier, both affordable and not: the interval must
// contain the exact value, and an accepted one must fit the budget. Wired
// into the `make check` fuzz-smoke stage.
func FuzzLadderSoundness(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(128), uint8(0), []byte(nil))
	f.Add(uint64(7), uint16(600), uint8(30), uint8(3), []byte{0, 4, 8})
	f.Add(uint64(42), uint16(3), uint8(250), uint8(40), []byte{8})
	f.Add(uint64(5), uint16(200), uint8(120), uint8(2), []byte{3, 0, 0, 7, 1})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, alphaRaw, budgetRaw uint8, weights []byte) {
		nv := int(n)%700 + 1
		// alpha skews the competency band across [0, 1): low alpha is an
		// incompetent electorate, high alpha a near-deterministic one.
		alpha := float64(alphaRaw) / 256
		lo := 0.9 * alpha
		hi := lo + (1-lo)*0.8 + 0.1
		if hi > 1 {
			hi = 1
		}
		// budget spans {none} ∪ [1e-12, ~1): 0 demands the exact tiers.
		var budget float64
		if budgetRaw > 0 {
			budget = math.Pow(10, -float64(budgetRaw%13))
		}
		s := rng.New(seed)
		seq := SliceSeq(randomPs(nv, lo, hi, s))
		ctx := context.Background()

		exact, err := LadderMajority(ctx, seq, LadderOptions{Force: TierExact})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []LadderOptions{
			{ErrorBudget: budget},
			{Force: TierFFT},
			{Force: TierNormal},
		} {
			ci, err := LadderMajority(ctx, seq, opts)
			if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
				t.Fatal(err)
			}
			if !ci.Contains(exact.Point) {
				t.Fatalf("seed=%d n=%d alpha=%v budget=%v opts=%+v: interval [%v, %v] (tier %v) does not contain exact %v",
					seed, nv, alpha, budget, opts, ci.Lo(), ci.Hi(), ci.Tier, exact.Point)
			}
			if err == nil && opts.ErrorBudget > 0 && ci.HalfWidth > opts.ErrorBudget {
				t.Fatalf("accepted interval half-width %v over budget %v", ci.HalfWidth, opts.ErrorBudget)
			}
		}

		voters := make([]WeightedVoter, nv)
		var st SumStats
		total := 0
		for i, p := range seq {
			w := 1
			if len(weights) > 0 {
				w += int(weights[i%len(weights)] % 9)
			}
			voters[i] = WeightedVoter{Weight: w, P: p}
			st.Add(float64(w), p)
			total += w
		}
		wm, err := NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		f := wm.PMFNaive()
		wexact := clamp01(Sum(f[total/2+1:]))
		normal := func() (CertifiedInterval, error) { return CertifyMajority(&st, float64(total/2)), nil }
		exactTier := func() (CertifiedInterval, error) { return CertifiedInterval{Point: wexact, Tier: TierExact}, nil }
		for _, ex := range []func() (CertifiedInterval, error){exactTier, nil} {
			ci, err := Certify(budget, normal, ex)
			if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
				t.Fatal(err)
			}
			if !ci.Contains(wexact) {
				t.Fatalf("seed=%d n=%d alpha=%v budget=%v weighted (exact affordable: %v): interval [%v, %v] (tier %v) does not contain exact %v",
					seed, nv, alpha, budget, ex != nil, ci.Lo(), ci.Hi(), ci.Tier, wexact)
			}
			if err == nil && budget > 0 && ci.HalfWidth > budget {
				t.Fatalf("weighted: accepted interval half-width %v over budget %v", ci.HalfWidth, budget)
			}
		}
	})
}

// TestCertifyTierRule pins the shared tier rule: which tier answers, whether
// ErrBudgetInfeasible accompanies it, and that the normal tier runs lazily —
// never when there is no budget and the exact evaluator is affordable, at
// most once otherwise.
func TestCertifyTierRule(t *testing.T) {
	normalCI := CertifiedInterval{Point: 0.6, HalfWidth: 1e-3, Tier: TierNormal}
	exactCI := CertifiedInterval{Point: 0.61, Tier: TierExact}
	fftCI := CertifiedInterval{Point: 0.61, HalfWidth: FFTTierErrorBudget, Tier: TierFFT}
	cases := []struct {
		name       string
		budget     float64
		exact      *CertifiedInterval
		want       CertifiedInterval
		infeasible bool
		normalRuns int
	}{
		{"no budget, exact affordable", 0, &exactCI, exactCI, false, 0},
		{"no budget, exact unaffordable", 0, nil, normalCI, true, 1},
		{"normal fits", 1e-2, &exactCI, normalCI, false, 1},
		{"normal misses, exact answers", 1e-4, &exactCI, exactCI, false, 1},
		{"normal misses, exact unaffordable", 1e-4, nil, normalCI, true, 1},
		{"kernel misses the budget too", 1e-12, &fftCI, fftCI, true, 1},
	}
	for _, tc := range cases {
		runs := 0
		normal := func() (CertifiedInterval, error) { runs++; return normalCI, nil }
		var exact func() (CertifiedInterval, error)
		if tc.exact != nil {
			ci := *tc.exact
			exact = func() (CertifiedInterval, error) { return ci, nil }
		}
		got, err := Certify(tc.budget, normal, exact)
		if got != tc.want || errors.Is(err, ErrBudgetInfeasible) != tc.infeasible || runs != tc.normalRuns {
			t.Errorf("%s: got %+v, err %v, normal ran %d times; want %+v, infeasible %v, %d runs",
				tc.name, got, err, runs, tc.want, tc.infeasible, tc.normalRuns)
		}
		if err != nil && !errors.Is(err, ErrBudgetInfeasible) {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}

	boom := errors.New("evaluator failed")
	fail := func() (CertifiedInterval, error) { return CertifiedInterval{}, boom }
	ok := func() (CertifiedInterval, error) { return exactCI, nil }
	if _, err := Certify(1e-2, fail, ok); !errors.Is(err, boom) {
		t.Errorf("normal failure: err = %v", err)
	}
	if _, err := Certify(0, fail, nil); !errors.Is(err, boom) {
		t.Errorf("normal failure without exact: err = %v", err)
	}
	if _, err := Certify(0, ok, fail); !errors.Is(err, boom) {
		t.Errorf("exact failure: err = %v", err)
	}
}
