package election

import (
	"context"
	"math"
	"runtime"
	"sort"
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
// both paths score the same canonical voter multiset. A cache-disabled
// point leaves the plan's ScoreCache untouched.
func TestResolutionCacheBitIdentical(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(201), randComps(201, 0.3, 0.49, 11))
	plan, err := NewPlan(in, Options{Replications: 24, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := SweepPoint{Mechanism: mechanism.ApprovalThreshold{Alpha: 0.05}, Seed: 7}
	off := pt
	off.DisableResolutionCache = true
	plain := evaluateOne(t, plan, off)
	if hits, misses := plan.scores.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache saw traffic: %d hits, %d misses", hits, misses)
	}
	cached := evaluateOne(t, plan, pt)
	if *cached != *plain {
		t.Fatalf("cache changed results: with %+v, without %+v", cached, plain)
	}
}

// evaluateOne evaluates one sweep point against plan.
func evaluateOne(t *testing.T, plan *Plan, pt SweepPoint) *Result {
	t.Helper()
	got, err := EvaluateSweep(context.Background(), plan, []SweepPoint{pt})
	if err != nil {
		t.Fatal(err)
	}
	return got[0]
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
	plan, err := NewPlan(in, Options{Replications: reps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	evaluateOne(t, plan, SweepPoint{Mechanism: mechanism.Direct{}, Seed: 3})
	if hits, misses := plan.scores.Stats(); misses != 1 || hits != reps-1 {
		t.Fatalf("direct mechanism: %d misses, %d hits; want 1 and %d", misses, hits, reps-1)
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

// TestScoreCacheByteBudget inserts keys of 1 MiB and more: the charge never
// passes scoreCacheMaxBytes, the cache drops everything when the next key
// would, a repeated key is charged once, and a key larger than the whole
// budget is not memoized.
func TestScoreCacheByteBudget(t *testing.T) {
	cache := NewScoreCache()
	drops := 0
	for i := 0; i < 80; i++ {
		key := make([]byte, 1<<20+i)
		key[0] = byte(i)
		before := cache.Len()
		cache.store(key, float64(i))
		cache.store(key, float64(i))
		if cache.Len() <= before {
			drops++
		}
		if cache.bytes > scoreCacheMaxBytes {
			t.Fatalf("insert %d: %d bytes charged, budget %d", i, cache.bytes, scoreCacheMaxBytes)
		}
		want := 0
		for k := range cache.m {
			want += len(k) + scoreCacheEntryBytes
		}
		if cache.bytes != want {
			t.Fatalf("insert %d: %d bytes charged, entries cost %d", i, cache.bytes, want)
		}
	}
	if drops < 2 {
		t.Fatalf("%d drops over 80 MiB of keys, want at least 2", drops)
	}
	entries, charged := cache.Len(), cache.bytes
	cache.store(make([]byte, scoreCacheMaxBytes), 1)
	if cache.Len() != entries || cache.bytes != charged {
		t.Fatalf("a key larger than the budget changed the cache: %d entries, %d bytes; want %d, %d", cache.Len(), cache.bytes, entries, charged)
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
	if _, ok := pdCache.load(pdKey(prob.NewWorkspace(), b)); !ok {
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

// TestDirectMemoFollowsPointSwitch pins the P^D half of
// SweepPoint.DisableResolutionCache: a cache-disabled point neither reads
// nor fills the process-wide P^D memo, and a cached point does both. The
// instance is built by no other test, and its memo entry is removed again.
func TestDirectMemoFollowsPointSwitch(t *testing.T) {
	in := mustInstance(t, graph.NewComplete(89), randComps(89, 0.35, 0.65, 8911))
	key := pdKey(prob.NewWorkspace(), in)
	if _, ok := pdCache.load(key); ok {
		t.Fatal("the instance is already memoized")
	}
	// forget removes the instance's entry and its charge.
	forget := func() {
		pdCache.mu.Lock()
		defer pdCache.mu.Unlock()
		if _, ok := pdCache.m[string(key)]; ok {
			delete(pdCache.m, string(key))
			pdCache.bytes -= len(key) + scoreCacheEntryBytes
		}
	}
	t.Cleanup(forget)
	want, err := exactDirectProbability(context.Background(), in, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(in, Options{Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pd := func(disable bool) float64 {
		return evaluateOne(t, plan, SweepPoint{Mechanism: mechanism.Direct{}, Seed: 1, DisableResolutionCache: disable}).PD
	}

	if got := pd(true); got != want {
		t.Fatalf("cache-disabled P^D %v, want %v", got, want)
	}
	if _, ok := pdCache.load(key); ok {
		t.Fatal("a cache-disabled point filled the P^D memo")
	}
	// A sentinel under the instance's key tells a read from a recompute.
	const sentinel = 0.125
	pdCache.store(key, sentinel)
	if got := pd(true); got != want {
		t.Fatalf("a cache-disabled point read the P^D memo: got %v, want %v", got, want)
	}
	if got := pd(false); got != sentinel {
		t.Fatalf("a cached point did not read the P^D memo: got %v, want the sentinel %v", got, sentinel)
	}
	forget()
	if got := pd(false); got != want {
		t.Fatalf("cached P^D %v, want %v", got, want)
	}
	if v, ok := pdCache.load(key); !ok || v != want {
		t.Fatalf("a cached point did not fill the P^D memo: %v, %v", v, ok)
	}
}

// TestDirectMemoByteBudget: the P^D memo is bounded in bytes, not entries.
// Exact P^D on distinct 20000-voter instances (160 KB keys) keeps the
// memo's charge at or below pdCacheMaxBytes, dropping the map when the next
// key would pass it, and a key larger than the budget (8 MiB, a 2^20-voter
// electorate's) is not memoized.
func TestDirectMemoByteBudget(t *testing.T) {
	const n = 20000
	s := rng.New(rng.Derive(25, "pd-memo"))
	charge := func() int {
		pdCache.mu.Lock()
		defer pdCache.mu.Unlock()
		return pdCache.bytes
	}
	drops := 0
	for i := 0; i < 30; i++ {
		before := pdCache.Len()
		if _, err := DirectProbabilityExact(randomInstance(t, n, 0.3, 0.7, s)); err != nil {
			t.Fatal(err)
		}
		if pdCache.Len() <= before {
			drops++
		}
		if c := charge(); c > pdCacheMaxBytes {
			t.Fatalf("instance %d: %d bytes charged, budget %d", i, c, pdCacheMaxBytes)
		}
	}
	if drops == 0 {
		t.Fatalf("30 keys of %d bytes never dropped a %d-byte memo", 8*n, pdCacheMaxBytes)
	}
	entries, charged := pdCache.Len(), charge()
	pdCache.store(make([]byte, 8<<20), 1)
	if pdCache.Len() != entries || charge() != charged {
		t.Fatalf("an 8 MiB key changed the memo: %d entries, %d bytes; want %d, %d", pdCache.Len(), charge(), entries, charged)
	}
}

// TestPlanForkedPDMatchesSequential: a Plan point's exact P^D runs the
// kernel with the point's worker budget, which forks at this size, and
// must equal the sequential DirectProbabilityExact bit for bit. The point
// bypasses the memo so that it computes rather than reads the value.
func TestPlanForkedPDMatchesSequential(t *testing.T) {
	const n, workers = ExactDirectMaxN, 4
	if b := prob.ParallelWorkerBudget(n, workers); b < 2 {
		t.Fatalf("fork budget %d at n=%d: the kernel would not fork", b, n)
	}
	in := mustInstance(t, graph.NewComplete(n), randComps(n, 0.3, 0.7, 4096))
	plan, err := NewPlan(in, Options{Replications: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	forked := evaluateOne(t, plan, SweepPoint{Mechanism: mechanism.Direct{}, Seed: 1, DisableResolutionCache: true}).PD
	sequential, err := DirectProbabilityExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(forked) != math.Float64bits(sequential) {
		t.Fatalf("forked P^D %v != sequential %v", forked, sequential)
	}
}

// TestDirectProbabilitySortedOrder pins the exact P^D, which reads the
// competencies in the instance's CompetencyOrder, to the path that sorts a
// copy with sort.Float64s, bit for bit: random instances, instances of tied
// competencies including 0 and 1, and an instance built from -0, at one
// and four workers.
func TestDirectProbabilitySortedOrder(t *testing.T) {
	s := rng.New(2602)
	ties := []float64{0, 1, 0.5, 0.25, 0.75}
	negZero := math.Copysign(0, -1)
	var cases [][]float64
	for _, n := range []int{1, 2, 7, 64, 65, 300, 2000} {
		cases = append(cases, randComps(n, 0, 1, uint64(n)))
		tied := make([]float64, n)
		for i := range tied {
			tied[i] = ties[s.IntN(len(ties))]
			if s.IntN(4) == 0 {
				tied[i] = s.Float64()
			}
		}
		cases = append(cases, tied)
		zeros := make([]float64, n)
		for i := range zeros {
			switch s.IntN(3) {
			case 0:
				zeros[i] = negZero
			case 1:
				zeros[i] = s.Float64()
			}
		}
		cases = append(cases, zeros)
	}
	for c, p := range cases {
		in := mustInstance(t, graph.NewComplete(len(p)), p)
		ps := in.Competencies()
		sort.Float64s(ps)
		want, err := prob.KernelMajority(nil, ps, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := exactDirectProbability(context.Background(), in, false, workers)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d (n=%d) at %d workers: P^D %v, the sorted copy gives %v", c, len(p), workers, got, want)
			}
		}
	}
}
