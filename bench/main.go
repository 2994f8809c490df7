// Command liquidbench is the repository's end-to-end benchmark. It builds
// liquidd and reproduce from the checkout it runs in, drives them (and
// the million-voter tier, in process) through five workloads, checks that
// every output is correct, and prints each metric as
//
//	<workload> <metric> <value> <unit>
//
// followed, as its last line, by one JSON object with the run's outcome
// and metrics. An untraced run reports the end-to-end metrics; a traced
// run (-trace 1) repeats the workload with tracing on and reports the
// per-layer metrics and the tracing overhead. See bench/README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// Without -workload every workload runs in turn. The exit code is nonzero
// when any correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, e *env, seed uint64, seconds float64, traced bool) (*result, error)
}

// workloads in BENCHMARK.json order.
var workloads = []workload{
	{"reproduce", runReproduce},
	{"serve_small", serveWorkload(serveSpecs[0])},
	{"serve_exact", serveWorkload(serveSpecs[1])},
	{"serve_delta", serveWorkload(serveSpecs[2])},
	{"certify_1e6", runCertify},
}

func serveWorkload(spec serveSpec) func(context.Context, *env, uint64, float64, bool) (*result, error) {
	return func(ctx context.Context, e *env, seed uint64, seconds float64, traced bool) (*result, error) {
		return runServe(ctx, spec, daemonLauncher{bin: e.binary("liquidd"), workDir: e.work}, seed, seconds, traced)
	}
}

// env locates the checkout under test and the benchmark's scratch space.
type env struct {
	root string // repository root: the tree that is built and measured
	work string // root/.bench_build: binaries, manifests, spans, results
}

func (e *env) binary(name string) string { return filepath.Join(e.work, "bin", name) }

// build compiles the binaries under test from the checkout.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(e.work, "bin")+string(filepath.Separator), "./cmd/liquidd", "./cmd/reproduce")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building liquidd and reproduce in %s: %w\n%s", e.root, err, out)
	}
	return nil
}

// findRoot walks up from dir to the directory whose go.mod declares
// module liquid.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module liquid" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no liquid checkout (a go.mod declaring module liquid) at or above the working directory")
		}
		dir = parent
	}
}

func main() {
	if code, ok := coldQueryChild(); ok {
		os.Exit(code)
	}
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("liquidbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all, in order)")
		seed    = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		spans   = fs.String("spans", "", "write a traced run's spans here as JSON lines (default .bench_build/spans-<workload>.jsonl)")
		results = fs.String("out", "", "append one result record per run here (default .bench_build/results.jsonl; '-' for none)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "liquidbench: -compare takes two result files")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), out); err != nil {
			fmt.Fprintln(errOut, "liquidbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(errOut, "liquidbench: -trace must be 0 or 1")
		return 2
	}
	sel := workloads
	if *name != "" {
		sel = nil
		for _, w := range workloads {
			if w.name == *name {
				sel = []workload{w}
			}
		}
		if sel == nil {
			fmt.Fprintf(errOut, "liquidbench: unknown workload %q\n", *name)
			return 2
		}
	}
	// One load process with at most nproc threads: the generator and the
	// in-process workloads share the reference machine's two CPUs with the
	// daemon.
	runtime.GOMAXPROCS(min(connections, runtime.NumCPU()))

	wd, err := os.Getwd()
	if err == nil {
		wd, err = findRoot(wd)
	}
	if err != nil {
		fmt.Fprintln(errOut, "liquidbench:", err)
		return 1
	}
	e := &env{root: wd, work: filepath.Join(wd, ".bench_build")}
	if err := e.build(ctx); err != nil {
		fmt.Fprintln(errOut, "liquidbench:", err)
		return 1
	}
	resultsPath := *results
	if resultsPath == "" {
		resultsPath = filepath.Join(e.work, "results.jsonl")
	}
	machine := machineConfig(e.root)

	var all []*result
	for _, w := range sel {
		cfg := machine.forWorkload(w.name, *seed, *seconds, *trace == 1)
		started := time.Now()
		r, err := w.run(ctx, e, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(errOut, "liquidbench: %s: %v\n", w.name, err)
			return 1
		}
		report(out, cfg, r, *trace == 1)
		if resultsPath != "-" {
			if err := appendRecord(resultsPath, newRecord(cfg, started, r)); err != nil {
				fmt.Fprintln(errOut, "liquidbench: recording result:", err)
				return 1
			}
		}
		if r.tr != nil {
			path := *spans
			if path == "" {
				path = filepath.Join(e.work, "spans-"+w.name+".jsonl")
			}
			if err := r.tr.write(path); err != nil {
				fmt.Fprintln(errOut, "liquidbench:", err)
				return 1
			}
		}
		all = append(all, r)
	}
	if len(all) > 1 {
		fmt.Fprintln(out, summaryLine(all, *trace == 1))
	} else {
		fmt.Fprintln(out, outcomeLine(all[0], reported(*trace == 1)))
	}
	for _, r := range all {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// reported is the metric set a run reports.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// missed stands in for a latency no request achieved (every sample beyond
// the percentile failed), so it reads as far worse than any measurement.
const missed = 1e9

func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return missed
	}
	return v
}

// report prints a run's configuration, metrics, notes and checks.
func report(out io.Writer, cfg runConfig, r *result, traced bool) {
	b, _ := json.Marshal(cfg) // a plain data struct
	fmt.Fprintf(out, "# config %s\n", b)
	for _, d := range reported(traced) {
		fmt.Fprintf(out, "%s %s %s %s\n", r.workload, d.name, formatValue(finite(r.metrics[d.name])), d.unit)
	}
	for _, in := range r.info {
		fmt.Fprintf(out, "%s info.%s %s %s\n", r.workload, in.name, formatValue(finite(in.value)), in.unit)
	}
	for _, c := range r.checks {
		mark := "ok"
		if !c.ok {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "%s check.%s %s %s\n", r.workload, c.name, mark, c.detail)
	}
	fmt.Fprintf(out, "%s attempted %d failed %d correct %v\n", r.workload, r.attempted, r.failed, r.correct())
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcomeLine is the single-workload result object.
func outcomeLine(r *result, defs []metricDef) string {
	o := outcome{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		o.Metrics[d.name] = metricValue{finite(r.metrics[d.name]), d.unit}
	}
	b, _ := json.Marshal(o) // finite floats and strings only
	return string(b)
}

// summaryLine is the result object of a run over every workload, with
// metrics named <workload>.<metric>.
func summaryLine(all []*result, traced bool) string {
	o := outcome{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range all {
		o.Correct = o.Correct && r.correct()
		o.Attempted += r.attempted
		o.Failed += r.failed
		for _, d := range reported(traced) {
			o.Metrics[r.workload+"."+d.name] = metricValue{finite(r.metrics[d.name]), d.unit}
		}
	}
	b, _ := json.Marshal(o) // finite floats and strings only
	return string(b)
}
