package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

func readBenchmarkFile(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, raw
}

// TestBenchmarkJSON holds BENCHMARK.json to the benchmark contract and to
// the metric and workload lists the code reports.
func TestBenchmarkJSON(t *testing.T) {
	bf, raw := readBenchmarkFile(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6 (err %v)", len(keys), err)
	}
	if bf.RunSeconds != defaultSeconds || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, the code defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
		if strings.Contains(c, "/") && !strings.HasPrefix(c, "bench/") {
			t.Errorf("command names %q outside the benchmark's paths", c)
		}
	}
	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") || strings.HasPrefix(p, "/") {
			t.Errorf("path %q", p)
		}
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code (want 2-8)", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s why %q", w.Name, w.Why)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the code (want 1-16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name("end_to_end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
		if i < len(endToEnd) {
			d := endToEnd[i]
			if d.name != m.Name || d.unit != m.Unit || d.lower != (m.Better == "lower") || d.bound != m.Bound {
				t.Errorf("end_to_end %d: BENCHMARK.json %+v, code %+v", i, m, d)
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the code (want 1-128)", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("per_layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per_layer %d: BENCHMARK.json %s %s, code %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, metric := range replayLayers {
		found := false
		for _, d := range perLayer {
			found = found || d.name == metric
		}
		if !found {
			t.Errorf("replayed layer metric %s is not a per-layer metric", metric)
		}
	}
}

// TestOutcomeLineCarriesEveryMetric checks the last output line's shape:
// exactly the contract's keys, and every metric of the run's kind with its
// unit, even one the workload never set.
func TestOutcomeLineCarriesEveryMetric(t *testing.T) {
	r := newResult("x")
	r.attempted = 3
	r.check("c", true, "")
	r.metrics["p50_ms"] = 1.25
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		var o map[string]json.RawMessage
		if err := json.Unmarshal([]byte(outcomeLine(r, defs)), &o); err != nil {
			t.Fatal(err)
		}
		if len(o) != 4 || o["correct"] == nil || o["attempted"] == nil || o["failed"] == nil || o["metrics"] == nil {
			t.Fatalf("outcome keys %v", o)
		}
		var ms map[string]metricValue
		if err := json.Unmarshal(o["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(defs) {
			t.Fatalf("%d metrics, want %d", len(ms), len(defs))
		}
		for _, d := range defs {
			if mv, ok := ms[d.name]; !ok || mv.Unit != d.unit {
				t.Errorf("metric %s: %+v", d.name, mv)
			}
		}
	}
}
