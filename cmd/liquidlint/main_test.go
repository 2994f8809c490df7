package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRepoIsClean is the smoke test required by the lint gate: the full
// ten-analyzer suite over the whole module must report nothing on stdout.
// The live-suppression summary goes to stderr and must account for exactly
// the justified floatacc ignores the tree carries. The test runs from
// cmd/liquidlint, so name the module explicitly rather than ./... .
func TestRepoIsClean(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"liquid/..."}, &out, &errOut); code != 0 {
		t.Fatalf("liquidlint liquid/... = exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run produced output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "live suppressions: floatacc=4") {
		t.Fatalf("suppression summary missing or wrong (want floatacc=4):\n%s", errOut.String())
	}
}

// TestFindingsExitOne drives the checker over a fixture module that is known
// to contain violations and checks the findings path end to end.
func TestFindingsExitOne(t *testing.T) {
	t.Chdir("../../internal/lint/maporder/testdata")
	var out, errOut bytes.Buffer
	code := run([]string{"./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "maporder:") {
		t.Fatalf("findings output missing maporder diagnostics:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s)") {
		t.Fatalf("findings output missing summary line:\n%s", out.String())
	}
}

// TestDependencyOnlyPackagesReportNothing lints one package of the walltime
// fixture. Its imports are analyzed for facts only: summary's two findings,
// which need the ReadsClock facts of engine, are reported, while election's
// own findings and its live suppression are not.
func TestDependencyOnlyPackagesReportNothing(t *testing.T) {
	t.Chdir("../../internal/lint/walltime/testdata")
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "walltime", "liquid/internal/summary"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if got := strings.Count(out.String(), "summary/fixture.go:"); got != 2 || strings.Contains(out.String(), "election/fixture.go:") {
		t.Fatalf("want exactly summary's 2 findings:\n%s", out.String())
	}
	if strings.Contains(errOut.String(), "live suppressions") {
		t.Fatalf("a dependency's suppression was counted:\n%s", errOut.String())
	}
}

// TestJSONOutput checks that -json emits the schema-stable report object:
// version, the analyzer roster, sorted diagnostics, and suppressions — the
// exact shape LINT.baseline pins.
func TestJSONOutput(t *testing.T) {
	t.Chdir("../../internal/lint/maporder/testdata")
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out.String())
	}
	if rep.Version != jsonVersion {
		t.Fatalf("version %d, want %d", rep.Version, jsonVersion)
	}
	if len(rep.Analyzers) != len(analyzers) {
		t.Fatalf("analyzer roster has %d entries, want %d: %v", len(rep.Analyzers), len(analyzers), rep.Analyzers)
	}
	if len(rep.Diagnostics) == 0 {
		t.Fatal("-json produced no diagnostics for a fixture with violations")
	}
	sawMaporder := false
	for i, d := range rep.Diagnostics {
		if d.Analyzer == "maporder" {
			sawMaporder = true
		}
		if i > 0 {
			prev := rep.Diagnostics[i-1]
			if prev.File > d.File || (prev.File == d.File && prev.Line > d.Line) {
				t.Fatalf("diagnostics not sorted: %v before %v", prev, d)
			}
		}
	}
	if !sawMaporder {
		t.Fatalf("no maporder diagnostics in %v", rep.Diagnostics)
	}
}

// TestOnly restricts the run to a single analyzer.
func TestOnly(t *testing.T) {
	t.Chdir("../../internal/lint/maporder/testdata")
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "maporder", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("-only maporder: exit %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "maporder:") {
		t.Fatalf("-only maporder produced no maporder findings:\n%s", out.String())
	}
	out.Reset()
	// -only an analyzer that is quiet on this fixture: clean exit.
	if code := run([]string{"-only", "lockorder", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("-only lockorder: exit %d, want 0\nstdout:\n%s", code, out.String())
	}
}

// TestOnlyDisableConflict: the two selection flags are mutually exclusive.
func TestOnlyDisableConflict(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-only", "maporder", "-disable", "seedflow", "liquid/..."}, &out, &errOut); code != 2 {
		t.Fatalf("-only with -disable: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Fatalf("missing mutual-exclusion error:\n%s", errOut.String())
	}
}

// TestDisable checks per-analyzer disable: turning maporder off silences the
// fixture's only violations.
func TestDisable(t *testing.T) {
	t.Chdir("../../internal/lint/maporder/testdata")
	var out, errOut bytes.Buffer
	if code := run([]string{"-disable", "maporder", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0 with maporder disabled\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// TestDisableValidation checks flag hygiene: unknown names and disabling
// everything are usage errors, not silent successes.
func TestDisableValidation(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-disable", "nosuch", "liquid/..."}, &out, &errOut); code != 2 {
		t.Fatalf("unknown -disable name: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Fatalf("missing unknown-analyzer error:\n%s", errOut.String())
	}
	errOut.Reset()
	all := "maporder,seedflow,walltime,ctxflow,floatacc,telemflow,lockorder,goroleak,hotalloc,lintdirective"
	if code := run([]string{"-disable", all, "liquid/..."}, &out, &errOut); code != 2 {
		t.Fatalf("disabling every analyzer: exit %d, want 2", code)
	}
}

// TestList checks that -list names the full ten-analyzer suite.
func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{
		"maporder", "seedflow", "walltime", "ctxflow", "floatacc", "telemflow",
		"lockorder", "goroleak", "hotalloc", "lintdirective",
	} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list output missing %s:\n%s", name, out.String())
		}
	}
}
