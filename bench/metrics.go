package main

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit; end-to-end metrics
// also carry their direction and regression bound (the share of the
// baseline median by which they may worsen). The two lists below are the
// benchmark's contract: BENCHMARK.json declares the same names, units,
// directions and bounds (TestBenchmarkJSON holds them equal), an untraced
// run reports every endToEnd metric, and a traced run every perLayer
// metric.
type metricDef struct {
	name, unit string
	lower      bool // lower is better
	bound      float64
}

// endToEnd metrics are what a user of the system sees. Each is defined for
// every workload (README "End-to-end metrics"): for serving, latency and
// throughput of the two-connection closed loop; for the others, one
// operation at a time.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"p50_ms", "ms", true, 0.25},
	{"sat_rps", "1/s", false, 0.25},
	{"cpu_ms_per_op", "ms", true, 0.25},
	{"peak_rss_mb", "MB", true, 0.25},
}

// perLayer metrics describe one module each. Layer times are reported as
// shares of the operation's end-to-end time (self time ÷ end-to-end time),
// which is the most a change to that layer alone can save on the workload;
// the absolute times are printed alongside and kept in the span file. A
// layer a workload never enters reports 0.
var perLayer = []metricDef{
	{name: "bench.gen.late_p99_share", unit: "share"},
	{name: "bench.client.wait_p99_share", unit: "share"},
	{name: "bench.trace.overhead_share", unit: "share"},
	{name: "server.decode.share", unit: "share"},
	{name: "server.decode.bytes", unit: "B/op"},
	{name: "server.encode.share", unit: "share"},
	{name: "server.encode.bytes", unit: "B/op"},
	{name: "server.admission.share", unit: "share"},
	{name: "server.admission.dp_units", unit: "count/op"},
	{name: "server.admission.dp_per_s", unit: "1/s"},
	{name: "server.shed_share", unit: "share"},
	{name: "server.approx_share", unit: "share"},
	{name: "server.residual_share", unit: "share"},
	{name: "server.scenario_cache.hit_ratio", unit: "ratio"},
	{name: "core.resolve.share", unit: "share"},
	{name: "election.plan.share", unit: "share"},
	{name: "election.sweep.share", unit: "share"},
	{name: "election.exact.share", unit: "share"},
	{name: "election.scenario.share", unit: "share"},
	{name: "election.replications_per_op", unit: "count/op"},
	{name: "election.resolution_cache.hit_ratio", unit: "ratio"},
	{name: "election.direct_cache.hit_ratio", unit: "ratio"},
	{name: "fault.sweep.share", unit: "share"},
	{name: "prob.dc.fft_merge_share", unit: "share"},
	{name: "prob.dc.leaves_per_op", unit: "count/op"},
	{name: "prob.delta.patch_share", unit: "share"},
	{name: "prob.delta.nodes_reused_per_op", unit: "count/op"},
	{name: "prob.arena.fallback_allocs_per_kop", unit: "count/kop"},
	{name: "prob.ladder.share", unit: "share"},
	{name: "prob.ladder.normal_share", unit: "share"},
	{name: "scale.new.share", unit: "share"},
	{name: "scale.fold.share", unit: "share"},
	{name: "experiment.X2.share", unit: "share"},
	{name: "experiment.X7.share", unit: "share"},
	{name: "experiment.T3.share", unit: "share"},
	{name: "experiment.S1.share", unit: "share"},
	{name: "experiment.rest.share", unit: "share"},
	{name: "engine.critical_share", unit: "share"},
	{name: "runtime.alloc_kb_per_op", unit: "KB/op"},
	{name: "runtime.mallocs_per_op", unit: "count/op"},
	{name: "runtime.gc_per_kop", unit: "count/kop"},
	{name: "runtime.gc_pause_ms_per_kop", unit: "ms/kop"},
}

// replayLayers maps the span names the replay records onto their share
// metrics.
var replayLayers = map[string]string{
	"server.decode":     "server.decode.share",
	"server.encode":     "server.encode.share",
	"server.admission":  "server.admission.share",
	"core.resolve":      "core.resolve.share",
	"election.plan":     "election.plan.share",
	"election.sweep":    "election.sweep.share",
	"election.exact":    "election.exact.share",
	"election.scenario": "election.scenario.share",
	"fault.sweep":       "fault.sweep.share",
	"scale.new":         "scale.new.share",
	"scale.fold":        "scale.fold.share",
	"prob.ladder":       "prob.ladder.share",
}

// check is one correctness check of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is one workload run: its metrics, the extra numbers printed next
// to them, its correctness checks, and its operation counts.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   map[string]float64
	info      []info
	checks    []check
	tr        *tracer
}

// info is a number printed and recorded with a run that is not one of the
// contract's metrics: sample counts, percentiles used, error share,
// absolute layer times.
type info struct {
	name  string
	value float64
	unit  string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: make(map[string]float64)}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) note(name string, value float64, unit string) {
	r.info = append(r.info, info{name, value, unit})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// share is num/den, or 0 when there is nothing to divide by.
func share(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// counterRatio is hits/(hits+misses) over two counters, 0 with no traffic.
func counterRatio(c map[string]uint64, hits, misses string) float64 {
	return share(float64(c[hits]), float64(c[hits]+c[misses]))
}

// counterLayers fills the per-layer metrics read from the program's own
// telemetry counters, normalised by the workload's operation count.
func counterLayers(m map[string]float64, c map[string]uint64, ops float64) {
	m["server.scenario_cache.hit_ratio"] = counterRatio(c, "server/scenario_cache_hits", "server/scenario_cache_misses")
	m["election.replications_per_op"] = share(float64(c["election/replications"]), ops)
	m["election.resolution_cache.hit_ratio"] = counterRatio(c, "election/resolution_cache_hits", "election/resolution_cache_misses")
	m["election.direct_cache.hit_ratio"] = counterRatio(c, "election/direct_cache_hits", "election/direct_cache_misses")
	m["prob.dc.fft_merge_share"] = counterRatio(c, "prob/dc_fft_merges", "prob/dc_dp_leaves")
	m["prob.dc.leaves_per_op"] = share(float64(c["prob/dc_dp_leaves"]), ops)
	m["prob.delta.patch_share"] = counterRatio(c, "prob/delta_patches", "prob/delta_rebuilds")
	m["prob.delta.nodes_reused_per_op"] = share(float64(c["prob/delta_nodes_reused"]), ops)
	m["prob.arena.fallback_allocs_per_kop"] = share(1000*float64(c["prob/arena_fallback_allocs"]), ops)
}

// runtimeLayers fills the Go runtime metrics from a memstats delta over
// ops operations.
func runtimeLayers(m map[string]float64, d memStats, ops float64) {
	m["runtime.alloc_kb_per_op"] = share(float64(d.TotalAlloc)/1024, ops)
	m["runtime.mallocs_per_op"] = share(float64(d.Mallocs), ops)
	m["runtime.gc_per_kop"] = share(1000*float64(d.NumGC), ops)
	m["runtime.gc_pause_ms_per_kop"] = share(float64(d.PauseTotalNs)/1e3, ops)
}

// spanLayers fills the share metrics of the layers a replay or an
// in-process run traced, given each span name's total self time and the
// operations' total end-to-end time, and notes the absolute mean self time
// per operation next to each share.
func spanLayers(r *result, self map[string]float64, total, ops float64) {
	for _, name := range slices.Sorted(maps.Keys(replayLayers)) {
		if t, ok := self[name]; ok {
			r.metrics[replayLayers[name]] = share(t, total)
			r.note("layer."+name+".us_per_op", share(t/1e3, ops), "us")
		}
	}
}
