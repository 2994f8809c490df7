// Package lintest runs an analyzer over a fixture module and checks its
// diagnostics against // want comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest (which the module deliberately
// does not depend on).
//
// A fixture is a self-contained Go module rooted at <analyzer>/testdata,
// conventionally named `module liquid` so that packages placed under
// testdata/internal/... land in the analyzers' scope exactly like the real
// tree. Expectations are written on the offending line:
//
//	for k := range m { // want `scheduling-dependent`
//
// The quoted text (backquotes or double quotes) is a regexp matched against
// the diagnostic message; several expectations may share a line. The run
// fails on any unexpected diagnostic and on any unmatched expectation, so a
// fixture fails both when the analyzer goes quiet and when it over-reports.
package lintest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"liquid/internal/lint/analysis"
	"liquid/internal/lint/load"
)

// expectation is one parsed // want comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the fixture module at dir and applies a, comparing diagnostics
// with // want comments; mismatches fail t. It is Check plus the testing.T
// plumbing.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	problems, err := Check(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// Check loads the fixture module at dir, applies a, and compares the
// diagnostics against the fixture's // want comments. It returns one
// problem string per mismatch — a fixture type error, an unexpected
// diagnostic, or an unmet expectation — and a non-nil error only when the
// fixture could not be processed at all (unloadable module, malformed
// // want comment, analyzer failure). A clean fixture yields (nil, nil).
//
// Check is the testable core of Run: it never touches testing.T, so the
// matcher's own behavior (regex handling, multi-expectation lines,
// over- and under-reporting) can itself be put under test.
func Check(dir string, a *analysis.Analyzer) (problems []string, err error) {
	pkgs, err := load.Packages(dir, "./...")
	if err != nil {
		return nil, fmt.Errorf("loading fixture %s: %w", dir, err)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("fixture %s matched no packages", dir)
	}
	var targets []*analysis.Target
	var wants []*expectation
	for _, p := range pkgs {
		if p.Err != nil {
			return nil, fmt.Errorf("loading fixture %s: %w", dir, p.Err)
		}
		for _, e := range p.TypeErrors {
			problems = append(problems, fmt.Sprintf("fixture %s: type error: %v", p.ImportPath, e))
		}
		targets = append(targets, &analysis.Target{
			Path: p.ImportPath, Fset: p.Fset, Files: p.Files, Pkg: p.Types, Info: p.Info,
			Imports: p.Imports, DepOnly: p.DepOnly,
		})
		for _, f := range p.Files {
			ws, err := parseWants(p.Fset, f)
			if err != nil {
				return nil, err
			}
			wants = append(wants, ws...)
		}
	}
	res, err := analysis.Run(targets, []*analysis.Analyzer{a})
	if err != nil {
		return nil, fmt.Errorf("running %s on fixture %s: %w", a.Name, dir, err)
	}
	for _, d := range res.Diagnostics {
		if !consume(wants, d) {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.met {
			problems = append(problems, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re))
		}
	}
	return problems, nil
}

func consume(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if !w.met && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
			w.met = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// parseWants extracts // want expectations from a file's comments.
func parseWants(fset *token.FileSet, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, "// want ")
			if idx < 0 {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := c.Text[idx+len("// want "):]
			ms := wantRE.FindAllStringSubmatch(rest, -1)
			if len(ms) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed // want: no quoted pattern in %q", pos.Filename, pos.Line, rest)
			}
			for _, m := range ms {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad // want pattern %q: %v", pos.Filename, pos.Line, pat, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out, nil
}
