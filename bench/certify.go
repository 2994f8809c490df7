package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/scale"
	"liquid/internal/telemetry"
)

// certifyVoters is the electorate size of a certified query. Tests shrink
// it; the benchmark queries a million voters.
var certifyVoters = 1_000_000

// delegateFracs cycle across queries: all direct, half delegating, and
// 95% delegating — the max-weight blowup regime of Gölz et al., where
// chains pile most of the weight onto a few sinks.
var delegateFracs = []float64{0, 0.5, 0.95}

const (
	certifyWorkers     = 2
	certifyErrorBudget = 1e-3
	coldQueries        = 5
)

// certifyQuery is one certified million-voter query: build the streamed
// electorate, fold it into the certified weighted-majority interval, and
// certify P^D through the approximation ladder.
type certifyQuery struct {
	majority *scale.MajorityResult
	direct   prob.CertifiedInterval
}

func querySpec(seed uint64, i int) scale.Spec {
	return scale.Spec{
		N:            certifyVoters,
		Seed:         rng.Derive(seed, "bench/certify", strconv.Itoa(i)),
		DelegateFrac: delegateFracs[i%len(delegateFracs)],
	}
}

// runQuery runs query i, with a span around each layer call when tr is
// set.
func runQuery(ctx context.Context, tr *tracer, op int, seed uint64, i, workers int) (*certifyQuery, error) {
	root := tr.start(op, 0, "query")
	defer tr.end(root)
	sp := tr.start(op, root, "scale.new")
	s, err := scale.New(querySpec(seed, i))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(op, root, "scale.fold")
	maj, err := scale.EvaluateMajority(ctx, s, workers)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start(op, root, "prob.ladder")
	direct, err := prob.LadderMajority(ctx, s, prob.LadderOptions{ErrorBudget: certifyErrorBudget, Workers: workers})
	tr.end(sp)
	// A budget no tier can meet at this size still returns the tightest
	// sound interval; the daemon serves it the same way.
	if err != nil && !errors.Is(err, prob.ErrBudgetInfeasible) {
		return nil, err
	}
	return &certifyQuery{majority: maj, direct: direct}, nil
}

// coldQueryEnv names the environment variable that makes the benchmark
// binary run one cold query and exit: set-up is timed on fresh processes,
// so one-time initialisation in the program counts. Its value is
// "<seed>/<voters>".
const coldQueryEnv = "LIQUIDBENCH_COLD_QUERY"

// coldQueryChild runs the cold query when this process was started for
// one.
func coldQueryChild() (code int, ok bool) {
	v, ok := os.LookupEnv(coldQueryEnv)
	if !ok {
		return 0, false
	}
	var seed uint64
	_, err := fmt.Sscanf(v, "%d/%d", &seed, &certifyVoters)
	if err == nil {
		runtime.GOMAXPROCS(min(connections, runtime.NumCPU()))
		_, err = runQuery(context.Background(), nil, 0, seed, 0, certifyWorkers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cold query:", err)
		return 1, true
	}
	return 0, true
}

// coldQuery times one cold query in a fresh process, from spawn to exit.
func coldQuery(ctx context.Context, seed uint64) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d/%d", coldQueryEnv, seed, certifyVoters))
	t0 := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("cold query: %w: %s", err, out)
	}
	return time.Since(t0), nil
}

// runCertify is the million-voter certified query in a closed loop with
// one client. Untraced it reports the end-to-end metrics; traced it runs
// half the loop plainly and half with spans around the scale and ladder
// calls.
func runCertify(ctx context.Context, _ *env, seed uint64, seconds float64, traced bool) (*result, error) {
	r := newResult("certify_1e6")
	if !traced {
		var setups []float64
		for range coldQueries {
			d, err := coldQuery(ctx, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		loop, err := certifyLoop(ctx, r, nil, seed, seconds)
		if err != nil {
			return nil, err
		}
		certifyEndToEnd(r, setups, loop)
		return r, certifyRecheck(ctx, r, seed)
	}
	base, err := certifyLoop(ctx, r, nil, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer()
	loop, err := certifyLoop(ctx, r, r.tr, seed, seconds/2)
	if err != nil {
		return nil, err
	}
	spanLayers(r, r.tr.selfTime(func(int) bool { return true }), sum(loop.latMS)*1e6, float64(len(loop.latMS)))
	counterLayers(r.metrics, loop.counters, float64(len(loop.latMS)))
	runtimeLayers(r.metrics, loop.mem, float64(len(loop.latMS)))
	r.metrics["prob.ladder.normal_share"] = share(float64(loop.normal), float64(len(loop.latMS)))
	r.metrics["bench.trace.overhead_share"] = share(median(loop.latMS)-median(base.latMS), median(base.latMS))
	r.note("trace.p50_ms_untraced", median(base.latMS), "ms")
	r.note("trace.p50_ms_traced", median(loop.latMS), "ms")
	return r, certifyRecheck(ctx, r, seed)
}

// certifyRun is what one closed loop measured.
type certifyRun struct {
	latMS    []float64 // each query's wall time
	cpuMS    []float64 // each query's process CPU time
	peakKB   int64
	mem      memStats
	counters map[string]uint64
	normal   int
	// maxWeight is the largest resolved sink weight any query saw: the
	// max-weight blowup the 0.95 delegation fraction drives.
	maxWeight int
}

// certifyLoop runs one untimed warm-up query, then queries back to back
// for seconds, checking each.
func certifyLoop(ctx context.Context, r *result, tr *tracer, seed uint64, seconds float64) (*certifyRun, error) {
	if _, err := runQuery(ctx, nil, 0, seed, 0, certifyWorkers); err != nil {
		return nil, err
	}
	run := &certifyRun{}
	before := snapshotCounters(telemetry.Default.Snapshot())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	bad := 0
	var maxWeight int
	for i := 1; time.Since(t0).Seconds() < seconds; i++ {
		c0, _ := selfUsage()
		q0 := time.Now()
		q, err := runQuery(ctx, tr, i, seed, i, certifyWorkers)
		if err != nil {
			return nil, err
		}
		run.latMS = append(run.latMS, float64(time.Since(q0))/1e6)
		c1, _ := selfUsage()
		run.cpuMS = append(run.cpuMS, float64(c1-c0)/1e6)
		r.attempted++
		if !sound(q) {
			bad++
			r.failed++
		}
		if q.direct.Tier == prob.TierNormal {
			run.normal++
		}
		maxWeight = max(maxWeight, q.majority.Stats.MaxWeight)
	}
	_, run.peakKB = selfUsage()
	runtime.ReadMemStats(&ms1)
	run.mem = memStats{ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs, ms1.NumGC - ms0.NumGC, ms1.PauseTotalNs - ms0.PauseTotalNs}
	after := snapshotCounters(telemetry.Default.Snapshot())
	run.counters = make(map[string]uint64)
	for k, v := range after {
		run.counters[k] = v - before[k]
	}
	r.check("weight_conserved", bad == 0, "%d of %d queries conserved weight and returned a sound interval", len(run.latMS)-bad, len(run.latMS))
	run.maxWeight = maxWeight
	return run, nil
}

// sound checks a query's invariants: every voter's weight lands on a
// sink, and both intervals are proper probabilities.
func sound(q *certifyQuery) bool {
	st := q.majority.Stats
	ok := st.WeightSum == int64(certifyVoters) && st.Sinks+st.Delegators == certifyVoters
	for _, ci := range []prob.CertifiedInterval{q.majority.Interval, q.direct} {
		ok = ok && ci.Point >= 0 && ci.Point <= 1 && ci.HalfWidth >= 0 && !math.IsNaN(ci.Point)
	}
	return ok
}

// certifyRecheck re-runs a seeded query on one worker and requires a
// bit-identical result: the fold and the ladder promise results that do
// not depend on the worker count.
func certifyRecheck(ctx context.Context, r *result, seed uint64) error {
	i := 1 + rng.New(seed).DeriveString("bench/certify/recheck").IntN(3)
	two, err := runQuery(ctx, nil, 0, seed, i, certifyWorkers)
	if err != nil {
		return err
	}
	one, err := runQuery(ctx, nil, 0, seed, i, 1)
	if err != nil {
		return err
	}
	same := func(a, b prob.CertifiedInterval) bool {
		return math.Float64bits(a.Point) == math.Float64bits(b.Point) && math.Float64bits(a.HalfWidth) == math.Float64bits(b.HalfWidth) && a.Tier == b.Tier
	}
	ok := same(one.majority.Interval, two.majority.Interval) && same(one.direct, two.direct) && one.majority.Stats == two.majority.Stats
	r.check("workers_bit_identical", ok, "query %d on 1 and %d workers: %+v vs %+v", i, certifyWorkers, one.majority.Interval, two.majority.Interval)
	return nil
}

// certifyEndToEnd computes the end-to-end metrics per block of
// consecutive queries, each block a whole number of delegation-fraction
// cycles and the blocks about rounds in number, and reports the better
// quartile of the blocks, as the serving workloads do with their rounds.
func certifyEndToEnd(r *result, setups []float64, run *certifyRun) {
	m := r.metrics
	n := len(run.latMS)
	cycle := len(delegateFracs)
	size := min(n, max(cycle, n/rounds/cycle*cycle)) // a short run is one block
	var p50, rate, cpu []float64
	for b := 0; b+size <= n; b += size {
		lat := run.latMS[b : b+size]
		p50 = append(p50, median(lat))
		rate = append(rate, share(float64(size), sum(lat)/1e3))
		cpu = append(cpu, sum(run.cpuMS[b:b+size])/float64(size))
	}
	m["setup_s"] = median(setups)
	m["p50_ms"] = fastQuartile(p50, true)
	m["sat_rps"] = fastQuartile(rate, false)
	m["cpu_ms_per_op"] = fastQuartile(cpu, true)
	m["peak_rss_mb"] = float64(run.peakKB) / 1024
	lat := sortedCopy(run.latMS)
	t, q := tail(lat)
	r.note("queries", float64(n), "count")
	r.note("blocks", float64(len(p50)), "count")
	r.note("p50_ms.all", percentile(lat, 0.5), "ms")
	r.note(fmt.Sprintf("p%g_ms.all", 100*q), t, "ms")
	r.note("max_weight", float64(run.maxWeight), "count")
}
