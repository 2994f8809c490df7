package election

import (
	"context"
	"math"
	"testing"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/rng"
)

// randomInstance builds a complete-graph instance with competencies in
// [lo, hi).
func randomInstance(t *testing.T, n int, lo, hi float64, s *rng.Stream) *core.Instance {
	t.Helper()
	p := make([]float64, n)
	for i := range p {
		p[i] = lo + (hi-lo)*s.Float64()
	}
	return mustInstance(t, graph.NewComplete(n), p)
}

// sameResult compares every deterministic Result field bit-for-bit.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Mechanism != want.Mechanism || got.N != want.N {
		t.Fatalf("%s: identity mismatch: (%q, %d) vs (%q, %d)", label, got.Mechanism, got.N, want.Mechanism, want.N)
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"PM", got.PM, want.PM},
		{"PMStdErr", got.PMStdErr, want.PMStdErr},
		{"PD", got.PD, want.PD},
		{"Gain", got.Gain, want.Gain},
		{"GainLo", got.GainLo, want.GainLo},
		{"GainHi", got.GainHi, want.GainHi},
		{"MeanDelegators", got.MeanDelegators, want.MeanDelegators},
		{"MeanSinks", got.MeanSinks, want.MeanSinks},
		{"MeanMaxWeight", got.MeanMaxWeight, want.MeanMaxWeight},
		{"MeanLongestChain", got.MeanLongestChain, want.MeanLongestChain},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v (bits %x), want %v (bits %x)",
				label, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
	if got.MaxMaxWeight != want.MaxMaxWeight {
		t.Fatalf("%s: MaxMaxWeight = %d, want %d", label, got.MaxMaxWeight, want.MaxMaxWeight)
	}
}

// sweepPoints builds a mechanism x margin grid with per-point derived
// seeds, the shape every experiment sweep has.
func sweepPoints(seed uint64) []SweepPoint {
	var points []SweepPoint
	for _, alpha := range []float64{0.02, 0.05, 0.1} {
		points = append(points,
			SweepPoint{
				Mechanism: mechanism.ApprovalThreshold{Alpha: alpha},
				Seed:      rng.Derive(seed, "threshold", "alpha", string(rune('a'+int(alpha*100)))),
			},
			SweepPoint{
				Mechanism: mechanism.GreedyBest{Alpha: alpha},
				Seed:      rng.Derive(seed, "greedy", "alpha", string(rune('a'+int(alpha*100)))),
			},
		)
	}
	points = append(points, SweepPoint{Mechanism: mechanism.Direct{}, Seed: rng.Derive(seed, "direct")})
	return points
}

// TestEvaluateSweepMatchesPointwise is the batched-vs-unbatched property:
// for random instances, EvaluateSweep over a shuffled point set must return
// results bit-identical to point-by-point EvaluateMechanism with the same
// options. Bit-identity here certifies the RNG draw contract too: each
// point's streams are derived only from its own seed, so any extra or
// missing draw in the batched path would shift a sampled value and break
// the float equality (the forced-Monte-Carlo variant below makes every
// value draw-sequence-sensitive on purpose).
func TestEvaluateSweepMatchesPointwise(t *testing.T) {
	ctx := context.Background()
	s := rng.New(97)
	base := Options{Replications: 8, Workers: 2, VoteSamples: 200}
	for _, n := range []int{101, 302} {
		in := randomInstance(t, n, 0.3, 0.6, s)
		points := sweepPoints(uint64(n))

		want := make([]*Result, len(points))
		for i, pt := range points {
			opts := base
			opts.Seed = pt.Seed
			res, err := EvaluateMechanism(ctx, in, pt.Mechanism, opts)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
		}

		// Shuffle the points, sweep, and undo the permutation: order inside
		// a sweep must not leak into any point's result.
		perm := rng.New(uint64(7 * n)).Perm(len(points))
		shuffled := make([]SweepPoint, len(points))
		for i, j := range perm {
			shuffled[j] = points[i]
		}
		plan, err := NewPlan(in, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateSweep(ctx, plan, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range perm {
			sameResult(t, "shuffled sweep", got[j], want[i])
		}
	}
}

// TestEvaluateSweepMonteCarloBranches repeats the property where both the
// P^D estimate (n > 4096) and every replication score (ExactCostLimit: 1)
// run Monte Carlo. Every reported float is now a function of the exact
// sequence of RNG draws, so bit-equality between the batched and unbatched
// paths proves the sweep consumes streams identically — zero extra draws.
func TestEvaluateSweepMonteCarloBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips the n>4096 Monte-Carlo instance")
	}
	ctx := context.Background()
	s := rng.New(101)
	in := randomInstance(t, 4099, 0.3, 0.6, s)
	base := Options{Replications: 3, Workers: 3, VoteSamples: 25, ExactCostLimit: 1}
	points := []SweepPoint{
		{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.05}, Seed: 11},
		{Mechanism: mechanism.Direct{}, Seed: 12},
		{Mechanism: mechanism.GreedyBest{Alpha: 0.03}, Seed: 13},
	}
	plan, err := NewPlan(in, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateSweep(ctx, plan, points)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		opts := base
		opts.Seed = pt.Seed
		want, err := EvaluateMechanism(ctx, in, pt.Mechanism, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "MC branch", got[i], want)
	}
}

// TestSweepDisableResolutionCachePerPoint pins the per-point cache knob:
// on one plan, a cache-disabled point must recompute everything from
// scratch yet produce exactly the bytes its cached twin produced — even
// when earlier points already populated the plan's score cache and the
// process-wide P^D memo (the old bug: the flag was only honoured before
// the first evaluation of an instance ever warmed those caches).
func TestSweepDisableResolutionCachePerPoint(t *testing.T) {
	s := rng.New(103)
	in := randomInstance(t, 201, 0.3, 0.6, s)
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	base := Options{Replications: 6, Workers: 2}
	plan, err := NewPlan(in, base)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed three times, one point at a time so the plan's cache
	// traffic can be read between them: warm the caches, then evaluate with
	// them bypassed, then once more with them hot again.
	points := []SweepPoint{
		{Mechanism: mech, Seed: 5},
		{Mechanism: mech, Seed: 5, DisableResolutionCache: true},
		{Mechanism: mech, Seed: 5},
	}
	got := make([]*Result, len(points))
	var hits, misses [3]uint64
	for i, pt := range points {
		got[i] = evaluateOne(t, plan, pt)
		hits[i], misses[i] = plan.scores.Stats()
	}
	sameResult(t, "disabled vs warm", got[1], got[0])
	sameResult(t, "rewarmed vs warm", got[2], got[0])
	if hits[1] != hits[0] || misses[1] != misses[0] {
		t.Fatalf("cache-disabled point moved the plan cache: %d/%d hits/misses before, %d/%d after",
			hits[0], misses[0], hits[1], misses[1])
	}
	if hits[2] == hits[1] {
		t.Fatal("re-enabled point saw no cache hits; plan cache was not shared")
	}
}

// TestPlanPrewarmApproval checks prewarming is invisible in results.
func TestPlanPrewarmApproval(t *testing.T) {
	ctx := context.Background()
	s := rng.New(107)
	in := randomInstance(t, 151, 0.3, 0.6, s)
	base := Options{Replications: 4}
	cold, err := NewPlan(in, base)
	if err != nil {
		t.Fatal(err)
	}
	pt := SweepPoint{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.07}, Seed: 3}
	want, err := EvaluateSweep(ctx, cold, []SweepPoint{pt})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewPlan(in, base)
	if err != nil {
		t.Fatal(err)
	}
	warm.PrewarmApproval(0.07, 0.02)
	got, err := EvaluateSweep(ctx, warm, []SweepPoint{pt})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "prewarmed", got[0], want[0])
}
