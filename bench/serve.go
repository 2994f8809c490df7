package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"time"

	"liquid/internal/rng"
	"liquid/internal/server"
)

// serveSpec is one serving workload: its request generator and instance
// size, its three open-loop rates and its p99 limit.
type serveSpec struct {
	name   string
	voters int
	// rates are the low, mid and high open-loop rates in requests/s, frozen
	// at about 15%, 35% and 60% of the seed commit's sat_rps on the
	// reference machine (README "Rates"). They stay fixed across commits, so
	// every commit is offered the same load.
	rates   [3]float64
	limitMS float64
	newGen  func(seed uint64, voters int) *generator
}

var serveSpecs = []serveSpec{
	{name: "serve_small", voters: 25, rates: [3]float64{2400, 5500, 9500}, limitMS: 5, newGen: newSmallGenerator},
	{name: "serve_exact", voters: 2000, rates: [3]float64{75, 175, 300}, limitMS: 50, newGen: newExactGenerator},
	{name: "serve_delta", voters: 2000, rates: [3]float64{100, 230, 390}, limitMS: 25, newGen: newDeltaGenerator},
}

// Phase kinds. The warm-up is discarded; low, mid and high are open loops
// at the three rates; the closed loop measures saturation throughput.
const (
	phaseWarmup = iota
	phaseLow
	phaseMid
	phaseHigh
	phaseClosed
	numKinds
)

// kindShares are the shares of a run's --seconds each kind of phase gets.
// The closed loop gets half: the bounded metrics are read from it.
var kindShares = [numKinds]struct {
	name  string
	share float64
}{{"warmup", 0.10}, {"low", 0.15}, {"mid", 0.15}, {"high", 0.10}, {"closed", 0.50}}

// rounds is how many times the low, mid, high and closed phases repeat
// after the warm-up (and about how many blocks certify_1e6 splits its
// queries into). The bounded metrics are read once per round and the run
// reports the better quartile of the rounds (see fastQuartile), so a burst
// of interference from the shared host moves only the rounds it lands in.
const rounds = 16

// connections is the load generator's connection count: one per CPU of
// the two-CPU reference machine, so the bench is a single process with at
// most nproc threads and connections.
const connections = 2

// coldStarts is how many fresh daemons a run times to its first healthy
// reply; setup_s is their median.
const coldStarts = 11

// drainCap bounds how long a phase may run past its schedule before the
// remaining requests are abandoned (and counted as failed).
const drainCap = 5 * time.Second

// Verification sample sizes: responses from the open-loop phases and
// from the start of each closed loop whose bytes are checked against
// offline evaluation in every run.
const (
	verifyOpen   = 256
	verifyClosed = 8
	minVerified  = 200
)

// phase is one scheduled phase of a serving run.
type phase struct {
	kind    int
	round   int     // 0-based; -1 for the warm-up
	rate    float64 // requests/s; 0 for a closed loop
	dur     time.Duration
	reqs    []*request      // open loop: requests in due order; closed: the pool
	due     []time.Duration // open loop only
	samples []sample
	wraps   int
}

func (p *phase) name() string { return kindShares[p.kind].name }

func planPhases(spec serveSpec, seconds float64) []*phase {
	dur := func(kind, n int) time.Duration {
		return time.Duration(kindShares[kind].share * seconds / float64(n) * float64(time.Second))
	}
	ps := []*phase{{kind: phaseWarmup, round: -1, rate: spec.rates[1], dur: dur(phaseWarmup, 1)}}
	for round := range rounds {
		for kind := phaseLow; kind <= phaseClosed; kind++ {
			p := &phase{kind: kind, round: round, dur: dur(kind, rounds)}
			if kind != phaseClosed {
				p.rate = spec.rates[kind-phaseLow]
			}
			ps = append(ps, p)
		}
	}
	return ps
}

// target is a running system under test.
type target struct {
	addr string
	// cpu returns the target's CPU time so far.
	cpu func() (time.Duration, error)
	// memstats reads the target's runtime counters (traced targets only).
	memstats func(context.Context) (memStats, error)
	// stop shuts the target down and returns its peak resident set and,
	// when traced, its telemetry counters.
	stop func() (peakKB int64, counters map[string]uint64, err error)
}

// launcher starts targets: liquidd child processes, or in tests an
// in-process server.
type launcher interface {
	// cold starts a fresh target, waits for its first 200 from /healthz,
	// stops it, and returns the time to that first 200.
	cold(ctx context.Context) (time.Duration, error)
	start(ctx context.Context, traced bool) (*target, error)
}

// serveRun is everything one serving run measured.
type serveRun struct {
	spec     serveSpec
	phases   []*phase
	setups   []float64
	roundCPU []time.Duration // target CPU in each round
	peakKB   int64
	mem      memStats // target runtime counters after the warm-up (traced)
	counters map[string]uint64
	before   server.Stats
	after    server.Stats
	verified int
}

// runServe runs a serving workload. Untraced, it reports the end-to-end
// metrics. Traced, it runs the schedule twice at half length — first
// untraced, then traced — replays the traced run in process, and reports
// the per-layer metrics with the tracing overhead.
func runServe(ctx context.Context, spec serveSpec, l launcher, seed uint64, seconds float64, traced bool) (*result, error) {
	r := newResult(spec.name)
	if !traced {
		run, err := serveOnce(ctx, r, spec, l, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		serveEndToEnd(r, run)
		return r, nil
	}
	base, err := serveOnce(ctx, r, spec, l, seed, seconds/2, false)
	if err != nil {
		return nil, err
	}
	run, err := serveOnce(ctx, r, spec, l, seed, seconds/2, true)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer()
	if err := serveLayers(ctx, r, run); err != nil {
		return nil, err
	}
	p50 := func(run *serveRun) float64 { return percentile(latencies(ofKind(run, phaseMid)...), 0.5) }
	r.metrics["bench.trace.overhead_share"] = share(p50(run)-p50(base), p50(base))
	r.note("trace.p50_ms_untraced", p50(base), "ms")
	r.note("trace.p50_ms_traced", p50(run), "ms")
	return r, nil
}

// serveOnce builds the schedule, measures set-up, drives every phase
// against a fresh target, and runs the correctness checks into r.
func serveOnce(ctx context.Context, r *result, spec serveSpec, l launcher, seed uint64, seconds float64, traced bool) (*serveRun, error) {
	run := &serveRun{spec: spec, phases: planPhases(spec, seconds)}
	g := spec.newGen(seed, spec.voters)
	arrivals := rng.New(seed).DeriveString("bench/arrivals")
	next := 0
	for pi, p := range run.phases {
		n := int(math.Round(p.rate * p.dur.Seconds()))
		if p.kind == phaseClosed {
			// Closed loops draw fresh requests from a pool covering 1.5x the
			// saturation rate the high phase implies; it wraps if a faster
			// commit outruns it.
			n = int(math.Ceil(1.5 * spec.rates[2] / 0.6 * p.dur.Seconds()))
		} else {
			p.due = poissonArrivals(arrivals.Derive(uint64(pi)), n, p.rate)
		}
		p.reqs = g.requests(next, n)
		next += n
	}
	pick := verifySample(seed, run.phases)

	for range coldStarts {
		d, err := l.cold(ctx)
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		run.setups = append(run.setups, d.Seconds())
	}
	t, err := l.start(ctx, traced)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _, _ = t.stop() // an error path already carries its cause
		}
	}()
	conns := make([]*conn, connections)
	for i := range conns {
		if conns[i], err = dial(t.addr); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	if err := getJSON(ctx, "http://"+t.addr+"/statsz", &run.before); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}

	var mark time.Duration // target CPU when the current round started
	var mem0 memStats
	for pi, p := range run.phases {
		if p.kind == phaseLow { // a round starts
			c, err := t.cpu()
			if err != nil {
				return nil, err
			}
			if p.round > 0 {
				run.roundCPU = append(run.roundCPU, c-mark)
			}
			mark = c
		}
		if pi == 1 && traced {
			if mem0, err = t.memstats(ctx); err != nil {
				return nil, fmt.Errorf("memstats: %w", err)
			}
		}
		keep := func(i int) bool { return pick[pickKey{pi, i}] || (traced && p.kind == phaseMid) }
		origin := time.Now()
		if p.kind == phaseClosed {
			p.samples, p.wraps = closedLoop(conns, origin, p.reqs, keep, origin.Add(p.dur))
		} else {
			p.samples = openLoop(conns, origin, p.reqs, p.due, keep, origin.Add(p.dur+drainCap))
		}
	}
	cpu1, err := t.cpu()
	if err != nil {
		return nil, err
	}
	run.roundCPU = append(run.roundCPU, cpu1-mark)
	if traced {
		mem1, err := t.memstats(ctx)
		if err != nil {
			return nil, fmt.Errorf("memstats: %w", err)
		}
		run.mem = mem1.minus(mem0)
	}
	if err := getJSON(ctx, "http://"+t.addr+"/statsz", &run.after); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	stopped = true
	if run.peakKB, run.counters, err = t.stop(); err != nil {
		return nil, err
	}
	checkServe(ctx, r, run, pick)
	return run, nil
}

// poissonArrivals returns n send times of a Poisson process at rate per
// second: independent users, so arrivals bunch and spread as they would in
// production, and no run locks into a lucky or unlucky rhythm with the
// daemon's scheduler.
func poissonArrivals(s *rng.Stream, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += s.ExpFloat64() / rate
	}
	return due
}

// pickKey names a request by phase and index within the phase.
type pickKey struct{ phase, i int }

// verifySample picks, from the seed, which responses a run checks byte for
// byte against offline evaluation: verifyOpen spread over the open-loop
// phases and verifyClosed from the start of each closed loop.
func verifySample(seed uint64, phases []*phase) map[pickKey]bool {
	s := rng.New(seed).DeriveString("bench/verify")
	pick := make(map[pickKey]bool)
	var open []pickKey
	for pi, p := range phases {
		if p.kind == phaseClosed {
			for i := range min(verifyClosed, len(p.reqs)) {
				pick[pickKey{pi, i}] = true
			}
			continue
		}
		for i := range p.reqs {
			open = append(open, pickKey{pi, i})
		}
	}
	for _, j := range s.SampleWithoutReplacement(len(open), min(verifyOpen, len(open))) {
		pick[open[j]] = true
	}
	return pick
}

// ok reports whether a sample got the status its request expects.
func ok(rq *request, s *sample) bool { return s.err == nil && s.status == rq.status }

// checkServe runs a serving run's correctness checks: every status as
// expected, the daemon's accounting identity, and the sampled responses
// byte-identical to offline evaluation.
func checkServe(ctx context.Context, r *result, run *serveRun, pick map[pickKey]bool) {
	var observed server.Stats
	transport, bad := 0, 0
	for _, p := range run.phases {
		for i := range p.samples {
			s := &p.samples[i]
			rq := p.reqs[s.idx]
			r.attempted++
			if !ok(rq, s) {
				r.failed++
			}
			if s.err != nil {
				if !s.abandoned {
					transport++
				}
				continue
			}
			observed.Received++
			switch s.status {
			case http.StatusOK:
				observed.Completed++
			case http.StatusBadRequest:
				observed.Malformed++
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				observed.Shed++
			case http.StatusGatewayTimeout:
				observed.Expired++
			default:
				observed.Failed++
			}
			if s.status != rq.status {
				bad++
			}
		}
	}
	r.check("statuses", bad == 0 && transport == 0, "%d unexpected statuses, %d transport errors", bad, transport)

	a, b := run.after, run.before
	delta := server.Stats{
		Received: a.Received - b.Received, Malformed: a.Malformed - b.Malformed, Shed: a.Shed - b.Shed,
		Completed: a.Completed - b.Completed, Failed: a.Failed - b.Failed, Expired: a.Expired - b.Expired,
	}
	identity := a.Received == a.Malformed+a.Shed+a.Completed+a.Failed+a.Expired
	r.check("statsz_identity", identity && delta == observed, "daemon %+v, client %+v", delta, observed)

	h := &handler{}
	picked, mismatches := 0, 0
	first := ""
	for pi, p := range run.phases {
		for i := range p.samples {
			s := &p.samples[i]
			if !pick[pickKey{pi, s.idx}] || s.body == nil || s.err != nil {
				continue
			}
			picked++
			rq := p.reqs[s.idx]
			want, err := h.respond(ctx, 0, rq)
			if err == nil && want.status == s.status && bytes.Equal(want.body, s.body) {
				run.verified++
				continue
			}
			mismatches++
			if first == "" {
				first = fmt.Sprintf(": %s request %d (%s): got %d %q, want %d %q (err %v)", p.name(), s.idx, rq.kind, s.status, s.body, want.status, want.body, err)
			}
		}
	}
	r.failed += int64(mismatches)
	r.check("offline_identical", mismatches == 0 && run.verified >= min(minVerified, picked), "%d responses byte-identical to offline evaluation, %d differ%s", run.verified, mismatches, first)
}

// ofKind returns the run's phases of one kind.
func ofKind(run *serveRun, kind int) []*phase {
	var ps []*phase
	for _, p := range run.phases {
		if p.kind == kind {
			ps = append(ps, p)
		}
	}
	return ps
}

// latencies returns the latencies in ms of every request in the given
// phases, sorted, with every failed request counted as +Inf: a failure
// misses any limit.
func latencies(phases ...*phase) []float64 {
	var lat []float64
	for _, p := range phases {
		for i := range p.samples {
			s := &p.samples[i]
			l := math.Inf(1)
			if ok(p.reqs[s.idx], s) {
				l = float64(s.latency()) / 1e6
			}
			lat = append(lat, l)
		}
	}
	sort.Float64s(lat)
	return lat
}

// perRound applies f to each of the run's phases of one kind that got a
// reply: one value per round.
func perRound(run *serveRun, kind int, f func(*phase) float64) []float64 {
	var vs []float64
	for _, p := range ofKind(run, kind) {
		if len(p.samples) > 0 {
			vs = append(vs, f(p))
		}
	}
	return vs
}

// throughput is a phase's successful requests per second, timed from its
// first send to its last reply.
func throughput(p *phase) float64 {
	n := 0
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for i := range p.samples {
		s := &p.samples[i]
		first, last = min(first, s.due), max(last, s.done)
		if ok(p.reqs[s.idx], s) {
			n++
		}
	}
	return share(float64(n), (last - first).Seconds())
}

// roundOps counts the requests sent in each round.
func roundOps(run *serveRun) []float64 {
	ops := make([]float64, rounds)
	for _, p := range run.phases[1:] {
		ops[p.round] += float64(len(p.samples))
	}
	return ops
}

// errorShare is the failed ÷ attempted share of one kind of phase.
func errorShare(run *serveRun, kind int) float64 {
	bad, all := 0, 0
	for _, p := range ofKind(run, kind) {
		for i := range p.samples {
			all++
			if !ok(p.reqs[p.samples[i].idx], &p.samples[i]) {
				bad++
			}
		}
	}
	return share(float64(bad), float64(all))
}

// measuredOps counts the requests sent after the warm-up.
func measuredOps(run *serveRun) float64 {
	n := 0
	for _, p := range run.phases[1:] {
		n += len(p.samples)
	}
	return float64(n)
}

// serveEndToEnd computes the end-to-end metrics of an untraced run, and
// notes each kind of phase's median and tail next to the limit. Latency
// and throughput come from the closed loops, where both CPUs stay busy;
// CPU per request comes from whole rounds.
func serveEndToEnd(r *result, run *serveRun) {
	m := r.metrics
	m["setup_s"] = median(run.setups)
	m["p50_ms"] = fastQuartile(perRound(run, phaseClosed, func(p *phase) float64 { return percentile(latencies(p), 0.5) }), true)
	m["sat_rps"] = fastQuartile(perRound(run, phaseClosed, throughput), false)
	var cpu []float64
	for i, n := range roundOps(run) {
		cpu = append(cpu, share(float64(run.roundCPU[i])/1e6, n))
	}
	m["cpu_ms_per_op"] = fastQuartile(cpu, true)
	m["peak_rss_mb"] = float64(run.peakKB) / 1024

	// Open-loop latency, tails and the highest rate meeting the limit are
	// reported, not bounded: on a shared two-CPU machine they measure how
	// soon the host hands an idle CPU back more than they measure the
	// program (README "End-to-end metrics").
	maxRate := 0.0
	for kind := phaseLow; kind < numKinds; kind++ {
		name := kindShares[kind].name
		lat := latencies(ofKind(run, kind)...)
		t, q := tail(lat)
		r.note("samples."+name, float64(len(lat)), "count")
		r.note("p50_ms."+name, percentile(lat, 0.5), "ms")
		r.note(fmt.Sprintf("p%g_ms.%s", 100*q, name), t, "ms")
		if kind != phaseClosed && t <= run.spec.limitMS && errorShare(run, kind) <= 0.01 {
			maxRate = run.spec.rates[kind-phaseLow]
		}
	}
	r.note("max_rate_rps", maxRate, "1/s")
	wraps := 0
	for _, p := range ofKind(run, phaseClosed) {
		wraps += p.wraps
	}
	r.note("closed_pool_wraps", float64(wraps), "count")
	r.note("verified", float64(run.verified), "count")
	r.note("error_share", share(float64(r.failed), float64(r.attempted)), "share")
	// The run is a valid open loop while this stays below 0.1 of the limit.
	r.note("gen_late_p99_share", generatorLateness(run)/run.spec.limitMS, "share")
}

// generatorLateness is the p99, in ms, of how late the generator sent
// open-loop requests once a connection was free.
func generatorLateness(run *serveRun) float64 {
	var late []float64
	for _, p := range run.phases[1:] {
		if p.kind == phaseClosed {
			continue
		}
		for i := range p.samples {
			late = append(late, float64(p.samples[i].late())/1e6)
		}
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}

// serveLayers replays the traced run in process in the order the daemon
// saw it, with spans on the mid phases, checks the replayed mid-phase
// bytes against the live ones, and computes the per-layer metrics.
func serveLayers(ctx context.Context, r *result, run *serveRun) error {
	m := r.metrics
	limit := run.spec.limitMS
	m["bench.gen.late_p99_share"] = generatorLateness(run) / limit
	var wait []float64
	for _, p := range ofKind(run, phaseHigh) {
		for i := range p.samples {
			wait = append(wait, float64(p.samples[i].wait())/1e6)
		}
	}
	sort.Float64s(wait)
	m["bench.client.wait_p99_share"] = percentile(wait, 0.99) / limit

	// Replaying everything up to the last mid phase, untimed outside the
	// mid phases, brings the mirrored scenario cache to each mid phase in
	// the state the daemon's was in.
	lastMid := 0
	for pi, p := range run.phases {
		if p.kind == phaseMid {
			lastMid = pi
		}
	}
	mirror := newScenarioMirror()
	warm := &handler{scenarios: mirror}
	timed := &handler{tr: r.tr, scenarios: mirror}
	var live, cost, kernel, inBytes, outBytes float64
	var n, approx, mismatched int
	first := ""
	for _, p := range run.phases[:lastMid+1] {
		order := make([]*sample, 0, len(p.samples))
		for i := range p.samples {
			if p.samples[i].err == nil {
				order = append(order, &p.samples[i])
			}
		}
		slices.SortStableFunc(order, func(a, b *sample) int { return int(a.sent - b.sent) })
		for _, s := range order {
			rq := p.reqs[s.idx]
			if p.kind != phaseMid {
				if _, err := warm.respond(ctx, 0, rq); err != nil {
					return fmt.Errorf("replay: %w", err)
				}
				continue
			}
			n++
			op := n
			ans, err := timed.respond(ctx, op, rq)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if ans.status != s.status || !bytes.Equal(ans.body, s.body) {
				mismatched++
				if first == "" {
					first = fmt.Sprintf(": request %d: live %d %q, replay %d %q", s.idx, s.status, s.body, ans.status, ans.body)
				}
			}
			root := r.tr.add(op, 0, "live.request", s.due, s.latency())
			r.tr.add(op, root, "bench.client.wait", s.due, s.wait())
			r.tr.add(op, root, "bench.gen.late", max(s.due, s.pickup), s.late())
			live += float64(s.latency())
			inBytes += float64(len(rq.body()))
			outBytes += float64(len(s.body))
			cost += float64(ans.cost)
			kernel += ans.kernel.Seconds()
			if s.status == http.StatusOK && isApproximate(s.body) {
				approx++
			}
		}
	}
	r.check("replay_identical", mismatched == 0 && n > 0, "%d replayed mid-phase responses, %d differ from live%s", n, mismatched, first)

	self := r.tr.selfTime(func(op int) bool { return op > 0 })
	replayTotal := 0.0
	for name, d := range self {
		if _, isLayer := replayLayers[name]; isLayer || name == "request" {
			replayTotal += d
		}
	}
	spanLayers(r, self, live, float64(n))
	m["server.residual_share"] = share(live-replayTotal, live)
	r.note("layer.residual.us_per_op", share((live-replayTotal)/1e3, float64(n)), "us")
	m["server.decode.bytes"] = share(inBytes, float64(n))
	m["server.encode.bytes"] = share(outBytes, float64(n))
	m["server.admission.dp_units"] = share(cost, float64(n))
	m["server.admission.dp_per_s"] = share(cost, kernel)
	m["server.approx_share"] = share(float64(approx), float64(n))
	m["server.shed_share"] = share(float64(run.after.Shed-run.before.Shed), float64(run.after.Received-run.before.Received))
	counterLayers(m, run.counters, float64(run.after.Received))
	runtimeLayers(m, run.mem, measuredOps(run))
	r.note("replay.mid_requests", float64(n), "count")
	r.note("replay.scenario_hit_ratio", share(float64(mirror.hits), float64(mirror.hits+mirror.misses)), "ratio")
	return nil
}
