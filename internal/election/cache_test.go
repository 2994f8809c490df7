package election

import (
	"context"
	"runtime"
	"testing"
	"time"

	"liquid/internal/core"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/telemetry"
)

func randComps(n int, lo, hi float64, seed uint64) []float64 {
	s := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*s.Float64()
	}
	return out
}

// TestResolutionCacheBitIdentical pins the determinism contract of the
// score cache: enabling or disabling it changes no Result value, because
// both paths score the same canonical voter multiset.
func TestResolutionCacheBitIdentical(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(201), randComps(201, 0.3, 0.49, 11))
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	base := Options{Replications: 24, Seed: 7, Workers: 1}
	cached, err := EvaluateMechanism(context.Background(), in, mech, base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.DisableResolutionCache = true
	plain, err := EvaluateMechanism(context.Background(), in, mech, off)
	if err != nil {
		t.Fatal(err)
	}
	if cached.PM != plain.PM || cached.PD != plain.PD || cached.Gain != plain.Gain ||
		cached.PMStdErr != plain.PMStdErr || cached.MeanSinks != plain.MeanSinks {
		t.Fatalf("cache changed results: with %+v, without %+v", cached, plain)
	}
	if plain.ResolutionCacheHits != 0 || plain.ResolutionCacheMisses != 0 {
		t.Fatalf("disabled cache reported traffic: %d hits, %d misses",
			plain.ResolutionCacheHits, plain.ResolutionCacheMisses)
	}
}

// TestResolutionCacheWorkerInvariance runs the same evaluation at 1 and 8
// workers with the shared cache on; results must be bit-identical. Under
// `go test -race` this also exercises the cache's concurrent paths.
func TestResolutionCacheWorkerInvariance(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(151), randComps(151, 0.3, 0.49, 23))
	mech := mechanism.ApprovalThreshold{Alpha: 0.05}
	var ref *Result
	for _, workers := range []int{1, 8} {
		res, err := EvaluateMechanism(context.Background(), in, mech, Options{
			Replications: 32, Seed: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.PM != ref.PM || res.PD != ref.PD || res.Gain != ref.Gain ||
			res.PMStdErr != ref.PMStdErr || res.MeanMaxWeight != ref.MeanMaxWeight {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, res, ref)
		}
	}
}

// TestResolutionCacheAccounting checks the telemetry on a single worker,
// where the hit/miss split is deterministic: a deterministic mechanism
// resolves to the same multiset every replication, so the first scoring
// misses and every later one hits.
func TestResolutionCacheAccounting(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(101), randComps(101, 0.3, 0.49, 31))
	const reps = 16
	res, err := EvaluateMechanism(context.Background(), in, mechanism.Direct{}, Options{
		Replications: reps, Seed: 3, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResolutionCacheMisses != 1 || res.ResolutionCacheHits != reps-1 {
		t.Fatalf("direct mechanism: %d misses, %d hits; want 1 and %d",
			res.ResolutionCacheMisses, res.ResolutionCacheHits, reps-1)
	}
}

// TestScoreCacheSharedAcrossCallers exercises ScoreCache directly: the
// same resolution scored through two workspaces returns identical values
// and hits on the second probe.
func TestScoreCacheSharedAcrossCallers(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(51), randComps(51, 0.3, 0.49, 41))
	d, err := (mechanism.ApprovalThreshold{Alpha: 0.05}).Apply(in, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ResolutionProbabilityExact(in, res)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache()
	for i := 0; i < 3; i++ {
		ws := prob.NewWorkspace()
		got, err := ResolutionProbabilityExactCached(in, res, ws, cache)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %d: cached %v != uncached %v", i, got, want)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("stats: %d hits, %d misses; want 2 and 1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", cache.Len())
	}
}

// TestDirectCacheStability: repeated P^D queries on one instance return
// the identical float and the process-wide telemetry records the hits.
func TestDirectCacheStability(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(301), randComps(301, 0.3, 0.49, 53))
	first, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	// Cache traffic is registered on the telemetry.Default registry; reading
	// it from a test is fine (telemflow scopes non-test files only).
	before := telemetry.NewCounter("election/direct_cache_hits").Load()
	for i := 0; i < 4; i++ {
		again, err := DirectProbabilityExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("query %d: P^D %v != %v", i, again, first)
		}
	}
	after := telemetry.NewCounter("election/direct_cache_hits").Load()
	if telemetry.Enabled && after < before+4 {
		t.Fatalf("direct hits %d -> %d, want at least +4", before, after)
	}
}

// TestDirectCacheKeyedByContent: the P^D memo is keyed by competency
// content, not by instance identity. A separately built instance with the
// same competencies, in another voter order, hits the entry the first one
// wrote, and the memo does not keep the first instance alive.
func TestDirectCacheKeyedByContent(t *testing.T) {
	ps := randComps(173, 0.3, 0.7, 71)
	collected := make(chan struct{})
	func() {
		a := mustInstance(t, graph.NewComplete(len(ps)), ps)
		runtime.SetFinalizer(a, func(*core.Instance) { close(collected) })
		if _, err := DirectProbabilityExact(a); err != nil {
			t.Fatal(err)
		}
	}()
	rev := make([]float64, len(ps))
	for i, p := range ps {
		rev[len(ps)-1-i] = p
	}
	b := mustInstance(t, graph.NewComplete(len(rev)), rev)
	if _, ok := pdCacheGet(pdKey(prob.NewWorkspace(), b)); !ok {
		t.Fatal("an instance with equal competencies missed the P^D memo")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the P^D memo keeps its instance alive")
}

// TestDirectMatchesAllDirectResolution pins the canonicalization contract:
// scoring the everyone-votes-directly delegation through the resolution
// path equals P^D bit-for-bit.
func TestDirectMatchesAllDirectResolution(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(257), randComps(257, 0.2, 0.8, 61))
	d, err := mechanism.Direct{}.Apply(in, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
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
	if pm != pd {
		t.Fatalf("all-direct P^M %v != P^D %v", pm, pd)
	}
}
