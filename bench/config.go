package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is everything a result depends on besides the code: recorded
// next to every result (the save-the-simulation-parameters idiom), so a
// number can always be traced to the machine, build and settings that
// produced it.
type runConfig struct {
	Workload   string        `json:"workload"`
	Seed       uint64        `json:"seed"`
	Seconds    float64       `json:"seconds"`
	Trace      bool          `json:"trace"`
	NProc      int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	CPUModel   string        `json:"cpu_model"`
	GoVersion  string        `json:"go_version"`
	GitRev     string        `json:"git_rev"`
	GitDirty   bool          `json:"git_dirty"`
	Phases     []phaseConfig `json:"phases,omitempty"` // the warm-up and one round
	Rounds     int           `json:"rounds,omitempty"`
	LimitMS    float64       `json:"p99_limit_ms,omitempty"`
}

type phaseConfig struct {
	Name    string  `json:"name"`
	RateRPS float64 `json:"rate_rps,omitempty"`
	Seconds float64 `json:"seconds"`
}

// machineConfig fills the fields shared by every run in a process.
func machineConfig(root string) runConfig {
	rev, dirty := gitState(root)
	return runConfig{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     rev,
		GitDirty:   dirty,
	}
}

// forWorkload specialises the machine config to one run.
func (c runConfig) forWorkload(name string, seed uint64, seconds float64, trace bool) runConfig {
	c.Workload, c.Seed, c.Seconds, c.Trace = name, seed, seconds, trace
	for _, sp := range serveSpecs {
		if sp.name != name {
			continue
		}
		c.LimitMS = sp.limitMS
		s := seconds
		if trace {
			s /= 2 // each half of a traced run (see runServe)
		}
		c.Rounds = rounds
		for _, p := range planPhases(sp, s)[:numKinds] {
			c.Phases = append(c.Phases, phaseConfig{Name: p.name(), RateRPS: p.rate, Seconds: p.dur.Seconds()})
		}
	}
	return c
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState returns the checkout's commit and whether its tracked files
// differ from it, or "unknown" outside a git checkout.
func gitState(root string) (rev string, dirty bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.CommandContext(ctx, "git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(st)) > 0
}

// record is one line of the results file: a run's configuration, outcome
// and every number it printed.
type record struct {
	Schema    string             `json:"schema"`
	Started   time.Time          `json:"started"`
	Config    runConfig          `json:"config"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]float64 `json:"info,omitempty"`
	Checks    map[string]string  `json:"checks,omitempty"`
}

const recordSchema = "liquid-bench-run/1"

func newRecord(cfg runConfig, started time.Time, r *result) record {
	rec := record{
		Schema: recordSchema, Started: started, Config: cfg, Correct: r.correct(),
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		Info: make(map[string]float64), Checks: make(map[string]string),
	}
	for _, in := range r.info {
		rec.Info[in.name] = in.value
	}
	for _, c := range r.checks {
		mark := "ok"
		if !c.ok {
			mark = "FAIL"
		}
		rec.Checks[c.name] = mark + ": " + c.detail
	}
	return rec
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
