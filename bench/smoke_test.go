package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"liquid/internal/server"
	"liquid/internal/telemetry"
)

func TestMain(m *testing.M) {
	// The certify workload times cold queries by re-running this binary.
	if code, ok := coldQueryChild(); ok {
		os.Exit(code)
	}
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// inProcess serves the daemon's handler from this process over httptest,
// so the serving workloads run without a build.
type inProcess struct{}

func (inProcess) cold(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	err := waitHealthy(ctx, strings.TrimPrefix(ts.URL, "http://"))
	d := time.Since(t0)
	ts.Close()
	srv.Close()
	return d, err
}

func (inProcess) start(ctx context.Context, traced bool) (*target, error) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	self := func() (time.Duration, error) {
		cpu, _ := selfUsage()
		return cpu, nil
	}
	return &target{
		addr: strings.TrimPrefix(ts.URL, "http://"),
		cpu:  self,
		memstats: func(context.Context) (memStats, error) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return memStats{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}, nil
		},
		stop: func() (int64, map[string]uint64, error) {
			ts.Close()
			srv.Close()
			_, peak := selfUsage()
			return peak, snapshotCounters(telemetry.Default.Snapshot()), nil
		},
	}, nil
}

// smallSpec shrinks a serving workload to smoke-test size: small
// instances at rates a race-instrumented in-process server keeps up with.
func smallSpec(spec serveSpec) serveSpec {
	spec.voters = min(spec.voters, 40)
	spec.rates = [3]float64{100, 200, 300}
	spec.limitMS = 1000
	return spec
}

func checkResult(t *testing.T, r *result, defs []metricDef, strict bool) {
	t.Helper()
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("%s: check %s failed: %s", r.workload, c.name, c.detail)
		}
	}
	if !r.correct() || r.attempted == 0 || r.failed != 0 {
		t.Errorf("%s: correct %v, attempted %d, failed %d", r.workload, r.correct(), r.attempted, r.failed)
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if strict && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			t.Errorf("%s: end-to-end metric %s = %v (set %v), want a positive measurement", r.workload, d.name, v, ok)
		}
	}
	var out bytes.Buffer
	report(&out, runConfig{Workload: r.workload}, r, !strict)
	for _, d := range defs {
		if !strings.Contains(out.String(), r.workload+" "+d.name+" ") {
			t.Errorf("%s: report prints no %s line", r.workload, d.name)
		}
	}
}

func TestServeWorkloadsInProcess(t *testing.T) {
	for _, spec := range serveSpecs {
		t.Run(spec.name, func(t *testing.T) {
			r, err := runServe(context.Background(), smallSpec(spec), inProcess{}, 5, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, endToEnd, true)
			tr, err := runServe(context.Background(), smallSpec(spec), inProcess{}, 5, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, tr, perLayer, false)
			if tr.metrics["server.decode.share"] <= 0 || tr.metrics["server.admission.dp_per_s"] <= 0 {
				t.Errorf("traced run measured no decode or kernel time: %v", tr.metrics)
			}
			if len(tr.tr.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func TestCertifyWorkload(t *testing.T) {
	defer func(n int) { certifyVoters = n }(certifyVoters)
	certifyVoters = 20_000
	r, err := runCertify(context.Background(), nil, 3, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, endToEnd, true)
	tr, err := runCertify(context.Background(), nil, 3, 0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, perLayer, false)
	if tr.metrics["scale.fold.share"] <= 0 || tr.metrics["prob.ladder.share"] <= 0 {
		t.Errorf("traced certify measured no fold or ladder time: %v", tr.metrics)
	}
}

// binDir holds liquidd and reproduce built once for the tests that run
// them as child processes.
var (
	binDir   string
	binOnce  sync.Once
	binErr   error
	testRoot = ".."
)

func builtEnv(t *testing.T) *env {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "liquidbench-test"); binErr == nil {
			binErr = (&env{root: testRoot, work: binDir}).build(context.Background())
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return &env{root: testRoot, work: binDir}
}

func TestReproduceWorkload(t *testing.T) {
	e := builtEnv(t)
	defer func(s string) { reproduceExperiments = s }(reproduceExperiments)
	reproduceExperiments = "F2,L3"
	r, err := runReproduce(context.Background(), e, 1, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, endToEnd, true)
	tr, err := runReproduce(context.Background(), e, 1, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, perLayer, false)
	if tr.metrics["experiment.rest.share"] != 1 || tr.metrics["engine.critical_share"] <= 0 {
		t.Errorf("experiment layer of an F2,L3 pass: %v", tr.metrics)
	}
}

func TestReproduceSeedsFoldOntoPassingSeeds(t *testing.T) {
	for seed, want := range map[uint64]uint64{0: 21, 1: 1, 2: 2, 21: 21, 22: 1, 104: 20, ^uint64(0): 15} {
		if got := reproduceSeed(seed); got != want {
			t.Errorf("reproduceSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestServeAgainstLiquidd(t *testing.T) {
	e := builtEnv(t)
	l := daemonLauncher{bin: e.binary("liquidd"), workDir: e.work}
	spec := smallSpec(serveSpecs[0])
	r, err := runServe(context.Background(), spec, l, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, r, endToEnd, true)
	tr, err := runServe(context.Background(), spec, l, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tr, perLayer, false)
	if tr.metrics["runtime.mallocs_per_op"] <= 0 || tr.metrics["election.replications_per_op"] <= 0 {
		t.Errorf("daemon memstats or manifest counters missing: %v", tr.metrics)
	}
}

// TestCommandLine runs the benchmark as the command does, on the cheapest
// workload, then compares the results file with itself.
func TestCommandLine(t *testing.T) {
	builtEnv(t) // warms the build cache the command's own build uses
	defer func(n int) { certifyVoters = n }(certifyVoters)
	certifyVoters = 20_000
	dir := t.TempDir()
	results := filepath.Join(dir, "results.jsonl")
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "certify_1e6", "--seed", "4", "--seconds", "0.2", "--trace", trace,
			"--out", results, "--spans", filepath.Join(dir, "spans.jsonl")}
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("run %v: exit %d\n%s\n%s", args, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if !strings.HasPrefix(lines[len(lines)-1], `{"correct":true,`) {
			t.Fatalf("last line %q", lines[len(lines)-1])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
	var out bytes.Buffer
	if code := run(context.Background(), []string{"-compare", results, results}, &out, &out); code != 0 {
		t.Fatalf("compare: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "certify_1e6") || !strings.Contains(out.String(), "within bound") {
		t.Errorf("compare output:\n%s", out.String())
	}
	for _, args := range [][]string{{"-trace", "2"}, {"-workload", "nope"}, {"-compare", results}, {"-bogus"}} {
		if code := run(context.Background(), args, &out, &out); code == 0 {
			t.Errorf("run %v succeeded", args)
		}
	}
}
