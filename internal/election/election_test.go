package election

import (
	"context"
	"errors"
	"math"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
)

func mustInstance(t *testing.T, top graph.Topology, p []float64) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(top, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func constComps(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestDirectProbabilityExactSmall(t *testing.T) {
	// Three voters at 0.6: P[majority] = 3*0.36*0.4 + 0.216 = 0.648.
	in := mustInstance(t, graph.NewComplete(3), constComps(3, 0.6))
	got, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.648) > 1e-12 {
		t.Fatalf("P^D = %v, want 0.648", got)
	}
}

func TestDirectProbabilityEmpty(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(0), nil)
	if _, err := DirectProbabilityExact(in); !errors.Is(err, ErrNoVoters) {
		t.Fatalf("err = %v", err)
	}
	if _, err := DirectProbability(context.Background(), in, 100, rng.New(1)); !errors.Is(err, ErrNoVoters) {
		t.Fatalf("err = %v", err)
	}
}

func TestDirectProbabilityMCPathAgreesWithExact(t *testing.T) {
	// DirectProbability switches to Monte Carlo above ExactDirectMaxN, where
	// the exact DP is expensive to run as a reference. Build a 5001-voter
	// instance cheaply with p=0.51 and check MC lands near the normal
	// approximation from the competencies' SumStats moments.
	const n = 5001
	in := mustInstance(t, graph.NewComplete(n), constComps(n, 0.51))
	got, err := DirectProbability(context.Background(), in, 4000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var st prob.SumStats
	for v := 0; v < n; v++ {
		st.Add(1, in.Competency(v))
	}
	approx := prob.Normal{Mu: st.Mean(), Sigma: math.Sqrt(st.Variance())}.SF(float64(n) / 2)
	if math.Abs(got-approx) > 0.05 {
		t.Fatalf("MC %v vs normal approx %v", got, approx)
	}
}

// TestDirectProbabilityMCPinned pins the Monte-Carlo P^D above
// ExactDirectMaxN bit for bit, with the stream position after it, at two
// seeds for n = 5000 (one competency at 0, one at 1). The values are those
// of one Bernoulli draw per voter in voter order, a sample winning on a
// strict majority: the draws and decisions the all-direct resolution's
// sampler must keep, since they are part of every seeded P^D above
// ExactDirectMaxN.
func TestDirectProbabilityMCPinned(t *testing.T) {
	const n = 5000
	ps := randComps(n, 0.4, 0.6, 5000)
	ps[7], ps[11] = 0, 1
	in := mustInstance(t, graph.NewComplete(n), ps)
	for _, want := range []struct {
		seed       uint64
		bits, next uint64
	}{
		{1, 0x3fd872b020c49ba6, 0x29f27c4dde53dc3},  // 0.382
		{2, 0x3fd9f3b645a1cac1, 0x8dfaf1852ddadd1f}, // 0.4055
	} {
		s := rng.New(want.seed)
		got, err := DirectProbability(context.Background(), in, 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != want.bits {
			t.Errorf("seed %d: P^D %v (%#x), want %v (%#x)", want.seed, got, math.Float64bits(got), math.Float64frombits(want.bits), want.bits)
		}
		if next := s.Uint64(); next != want.next {
			t.Errorf("seed %d: the stream continues at %#x, want %#x", want.seed, next, want.next)
		}
	}
}

// TestCertifyDirect: P^D's certified normal tier on a balanced electorate
// (mean exactly at the threshold, so only Berry–Esseen bounds it) contains
// the exact value with a half-width of the Berry–Esseen order.
func TestCertifyDirect(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(100), constComps(100, 0.5))
	ci := CertifyDirect(in)
	exact, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Tier != prob.TierNormal || !ci.Contains(exact) {
		t.Fatalf("interval %+v does not certify exact %v", ci, exact)
	}
	if ci.HalfWidth <= 0 || ci.HalfWidth > 0.1 {
		t.Fatalf("half-width %v, want the Berry–Esseen order (~0.06 at n=100)", ci.HalfWidth)
	}
}

func TestResolutionProbabilityDictator(t *testing.T) {
	// Figure 1: all weight on the center with p = 2/3.
	const n = 9
	p := constComps(n, 3.0/5)
	p[0] = 2.0 / 3
	in := mustInstance(t, graph.NewComplete(n), p)
	d := core.NewDelegationGraph(n)
	for i := 1; i < n; i++ {
		if err := d.SetDelegate(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("dictator P^M = %v, want 2/3", got)
	}
}

func TestResolutionProbabilityAllDirectEqualsDirect(t *testing.T) {
	p := []float64{0.3, 0.8, 0.55, 0.62, 0.41}
	in := mustInstance(t, graph.NewComplete(5), p)
	d := core.NewDelegationGraph(5)
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pm-pd) > 1e-12 {
		t.Fatalf("all-direct P^M %v != P^D %v", pm, pd)
	}
}

func TestResolutionProbabilityMCMatchesExact(t *testing.T) {
	p := []float64{0.2, 0.4, 0.6, 0.7, 0.9, 0.55, 0.35}
	in := mustInstance(t, graph.NewComplete(7), p)
	d := core.NewDelegationGraph(7)
	// 0 -> 4, 1 -> 4, 5 -> 3.
	for _, e := range [][2]int{{0, 4}, {1, 4}, {5, 3}} {
		if err := d.SetDelegate(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ResolutionProbabilityMC(context.Background(), in, res, 200000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-mc) > 0.01 {
		t.Fatalf("exact %v vs MC %v", exact, mc)
	}
}

// resolutionProbabilityMCReference is the Bernoulli loop
// ResolutionProbabilityMC must reproduce: per sample, one s.Bernoulli per
// sink in sink order, a sample winning on a strict weighted majority.
func resolutionProbabilityMCReference(in *core.Instance, res *core.Resolution, samples int, s *rng.Stream) float64 {
	wins := 0
	for t := 0; t < samples; t++ {
		correct := 0
		for _, sk := range res.Sinks {
			if s.Bernoulli(in.Competency(sk)) {
				correct += res.Weight[sk]
			}
		}
		if 2*correct > res.TotalWeight {
			wins++
		}
	}
	return float64(wins) / float64(samples)
}

// TestResolutionProbabilityMCMatchesReference holds the threshold kernel
// to the Bernoulli loop bit for bit, and in the stream's next word, on
// resolutions with weighted sinks (random upward delegations, some of them
// abstaining), sure sinks (p = 1), sinks that never vote correctly (p = 0)
// and the extreme draws p = 5e-324 and 1 − 2^-53.
func TestResolutionProbabilityMCMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 9, 60, 501} {
		for trial := range 4 {
			s := rng.New(uint64(n)<<8 | uint64(trial))
			p := make([]float64, n)
			for i := range p {
				switch s.IntN(8) {
				case 0:
					p[i] = 0
				case 1:
					p[i] = 1
				case 2:
					p[i] = math.SmallestNonzeroFloat64
				case 3:
					p[i] = 1 - 0x1p-53
				default:
					p[i] = s.Float64()
				}
			}
			in := mustInstance(t, graph.NewComplete(n), p)
			d := core.NewDelegationGraph(n)
			for i := 0; i+1 < n; i++ {
				if s.IntN(3) != 0 {
					continue
				}
				if err := d.SetDelegate(i, i+1+s.IntN(n-i-1)); err != nil {
					t.Fatal(err)
				}
				if s.IntN(4) == 0 {
					d.SetAbstained(i)
				}
			}
			res, err := d.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			for _, samples := range []int{1, 7, 300} {
				seed := s.Uint64()
				a, b := rng.New(seed), rng.New(seed)
				got, err := ResolutionProbabilityMC(context.Background(), in, res, samples, a)
				if err != nil {
					t.Fatal(err)
				}
				want := resolutionProbabilityMCReference(in, res, samples, b)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d samples=%d: kernel %v, reference %v", n, trial, samples, got, want)
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("n=%d trial %d samples=%d: the streams continue at different words", n, trial, samples)
				}
			}
		}
	}
}

func TestResolutionProbabilityAllAbstained(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(2), []float64{0.3, 0.9})
	d := core.NewDelegationGraph(2)
	if err := d.SetDelegate(0, 1); err != nil {
		t.Fatal(err)
	}
	// Make the sink itself abstain too by delegating 1 -> nothing...
	// a single voter cannot abstain, so emulate the empty-sink case
	// directly with a synthetic resolution.
	res := &core.Resolution{SinkOf: []int{core.NoDelegate, core.NoDelegate}}
	pm, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	if pm != 0 {
		t.Fatalf("no sinks should mean P = 0, got %v", pm)
	}
}

func TestEvaluateMechanismStarLoss(t *testing.T) {
	// The Figure 1 shape: greedy delegation on a competent-center star
	// loses versus direct voting once n is large.
	const n = 101
	g, err := graph.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	p := constComps(n, 3.0/5)
	p[0] = 2.0 / 3
	in := mustInstance(t, g, p)

	res, err := EvaluateMechanism(context.Background(), in, mechanism.GreedyBest{Alpha: 0.01}, Options{
		Replications: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PM-2.0/3) > 1e-9 {
		t.Fatalf("star delegation P^M = %v, want 2/3", res.PM)
	}
	if res.PD < 0.95 {
		t.Fatalf("direct voting on 101 voters at 0.6 should be near-certain, got %v", res.PD)
	}
	if res.Gain > -0.25 {
		t.Fatalf("expected loss near -1/3, gain = %v", res.Gain)
	}
	if res.MaxMaxWeight != n {
		t.Fatalf("expected dictator weight %d, got %d", n, res.MaxMaxWeight)
	}
}

func TestEvaluateMechanismCompleteGain(t *testing.T) {
	// Algorithm 1 on K_n with competencies below 1/2 on average: delegation
	// should deliver positive gain.
	const n = 301
	s := rng.New(11)
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.3 + 0.35*s.Float64() // mean ~0.475 < 1/2
	}
	in := mustInstance(t, graph.NewComplete(n), p)
	res, err := EvaluateMechanism(context.Background(), in, mechanism.ApprovalThreshold{Alpha: 0.05}, Options{
		Replications: 16, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gain <= 0 {
		t.Fatalf("expected positive gain on K_n, got %v (PM=%v PD=%v)", res.Gain, res.PM, res.PD)
	}
	if res.MeanDelegators == 0 {
		t.Fatal("expected delegation")
	}
}

func TestEvaluateMechanismDeterministic(t *testing.T) {
	const n = 50
	s := rng.New(17)
	p := make([]float64, n)
	for i := range p {
		p[i] = s.Float64()
	}
	in := mustInstance(t, graph.NewComplete(n), p)
	opts := Options{Replications: 8, Seed: 99}
	a, err := EvaluateMechanism(context.Background(), in, mechanism.ApprovalThreshold{Alpha: 0.02}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateMechanism(context.Background(), in, mechanism.ApprovalThreshold{Alpha: 0.02}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.PM != b.PM || a.PD != b.PD || a.Gain != b.Gain {
		t.Fatalf("same seed must give identical results: %+v vs %+v", a, b)
	}
}

func TestEvaluateMechanismEmpty(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(0), nil)
	if _, err := EvaluateMechanism(context.Background(), in, mechanism.Direct{}, Options{}); !errors.Is(err, ErrNoVoters) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvaluateDirectMechanismZeroGain(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(9), constComps(9, 0.55))
	res, err := EvaluateMechanism(context.Background(), in, mechanism.Direct{}, Options{Replications: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain) > 1e-12 {
		t.Fatalf("direct mechanism gain = %v, want 0", res.Gain)
	}
}

func TestEvaluateMechanismSurfacesCycleError(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(6), constComps(6, 0.5))
	_, err := EvaluateMechanism(context.Background(), in, mechanism.CycleForcing{}, Options{Replications: 2, Seed: 1})
	if !errors.Is(err, core.ErrCyclicDelegation) {
		t.Fatalf("err = %v, want ErrCyclicDelegation", err)
	}
}
