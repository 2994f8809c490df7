package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// fakeAnalyzer reports one diagnostic on every function declaration.
var fakeAnalyzer = &Analyzer{
	Name: "fake",
	Doc:  "flags every function",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "function %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

func parseTarget(t *testing.T, src string) *Target {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Target{Path: "liquid/internal/fake", Fset: fset, Files: []*ast.File{f}}
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	tgt := parseTarget(t, `package fake

//lint:ignore fake covered by an integration test
func a() {}

func b() {}

func c() {} //lint:ignore fake inline justification
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diagnostics
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "function b") {
		t.Fatalf("want exactly the diagnostic for b, got %v", diags)
	}
	if res.Suppressions["fake"] != 2 {
		t.Fatalf("want 2 live fake suppressions, got %v", res.Suppressions)
	}
}

func TestIgnoreDirectiveWrongAnalyzerKept(t *testing.T) {
	tgt := parseTarget(t, `package fake

//lint:ignore other not this analyzer
func a() {}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("directive for another analyzer must not suppress, got %v", res.Diagnostics)
	}
}

func TestMalformedDirectiveReported(t *testing.T) {
	tgt := parseTarget(t, `package fake

//lint:ignore fake
func a() {}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	// The reasonless directive does not suppress, and is itself flagged.
	var sawMalformed, sawFunc bool
	for _, d := range res.Diagnostics {
		if d.Analyzer == "lintdirective" {
			sawMalformed = true
		}
		if strings.Contains(d.Message, "function a") {
			sawFunc = true
		}
	}
	if !sawMalformed || !sawFunc {
		t.Fatalf("want malformed-directive and function diagnostics, got %v", res.Diagnostics)
	}
}

func TestUnusedDirectiveReported(t *testing.T) {
	tgt := parseTarget(t, `package fake

//lint:ignore fake this suppresses nothing
var x = 1
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diagnostics
	if len(diags) != 1 || diags[0].Analyzer != "lintdirective" || !strings.Contains(diags[0].Message, "unused") {
		t.Fatalf("want one unused-directive diagnostic, got %v", diags)
	}
	if len(res.Suppressions) != 0 {
		t.Fatalf("dead directive must not count as live, got %v", res.Suppressions)
	}
}

func TestUnusedDirectiveForInactiveAnalyzerSilent(t *testing.T) {
	// A directive naming an analyzer that did not run must not be called
	// dead — under -disable it simply never had its chance to match.
	tgt := parseTarget(t, `package fake

//lint:ignore other the other analyzer is disabled in this run
var x = 1
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("directive for inactive analyzer must be silent, got %v", res.Diagnostics)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	tgt := parseTarget(t, `package fake

func b() {}

func a() {}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{fakeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diagnostics
	if len(diags) != 2 || diags[0].Line >= diags[1].Line {
		t.Fatalf("diagnostics not sorted by line: %v", diags)
	}
}

// TestDiagnosticsSameSpotSortedByMessage: diagnostics of one analyzer at
// one position sort by message, so the report order never depends on the
// order findings were made in.
func TestDiagnosticsSameSpotSortedByMessage(t *testing.T) {
	tgt := parseTarget(t, `package fake

func a() {}
`)
	twice := &Analyzer{
		Name: "twice",
		Doc:  "flags every function twice, z before a",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					pass.Reportf(d.Pos(), "z")
					pass.Reportf(d.Pos(), "a")
				}
			}
			return nil
		},
	}
	res, err := Run([]*Target{tgt}, []*Analyzer{twice})
	if err != nil {
		t.Fatal(err)
	}
	if diags := res.Diagnostics; len(diags) != 2 || diags[0].Message != "a" || diags[1].Message != "z" {
		t.Fatalf("want a then z at one position, got %v", diags)
	}
}

// stmtAnalyzer flags the closing line of every multi-line call statement:
// the shape of a diagnostic whose position is lines below the statement it
// belongs to.
var stmtAnalyzer = &Analyzer{
	Name: "stmt",
	Doc:  "flags the last argument of multi-line calls",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				last := call.Args[len(call.Args)-1]
				if pass.Fset.Position(call.Pos()).Line != pass.Fset.Position(last.Pos()).Line {
					pass.Reportf(last.Pos(), "deep diagnostic")
				}
				return true
			})
		}
		return nil
	},
}

// TestMultiLineStatementSuppressionNotTooBroad: a directive two lines above
// the statement's first line (above the enclosing func decl, say) still
// does not match — only the statement's first line and the line above it
// count, exactly like the single-line rule.
func TestMultiLineStatementSuppressionNotTooBroad(t *testing.T) {
	tgt := parseTarget(t, `package fake

func sink(a, b int) {}

//lint:ignore stmt too far above the statement to count
func a() {
	sink(
		1,
		2)
}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{stmtAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	// The wrapped-call diagnostic survives, and the directive is reported
	// as unused.
	var sawDeep, sawUnused bool
	for _, d := range res.Diagnostics {
		if d.Analyzer == "stmt" {
			sawDeep = true
		}
		if d.Analyzer == "lintdirective" && strings.Contains(d.Message, "unused") {
			sawUnused = true
		}
	}
	if !sawDeep || !sawUnused || len(res.Diagnostics) != 2 {
		t.Fatalf("want the surviving diagnostic plus an unused-directive finding, got %v", res.Diagnostics)
	}
}

// TestMultiLineStatementSuppressionAdjacent pins the intended layouts
// exactly: directive immediately above the statement's first line, and
// directive inline on the first line, both covering a diagnostic two lines
// down.
func TestMultiLineStatementSuppressionAdjacent(t *testing.T) {
	tgt := parseTarget(t, `package fake

func sink(a, b int) {}

func a() {
	//lint:ignore stmt stand-alone directive above a wrapped call
	sink(
		1,
		2)
}

func b() {
	sink( //lint:ignore stmt inline directive on the first line
		3,
		4)
}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{stmtAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("both wrapped-call diagnostics must be suppressed, got %v", res.Diagnostics)
	}
	if res.Suppressions["stmt"] != 2 {
		t.Fatalf("want 2 live stmt suppressions, got %v", res.Suppressions)
	}
}

// TestMultiLineSuppressionInnermost: only the innermost enclosing
// statement counts. A directive above an enclosing for statement must not
// blanket-suppress a diagnostic that belongs to a narrower statement
// starting further down inside the loop body.
func TestMultiLineSuppressionInnermost(t *testing.T) {
	tgt := parseTarget(t, `package fake

func sink(a, b int) {}

func a() {
	//lint:ignore stmt the loop is fine, says someone too far away
	for i := 0; i < 3; i++ {
		sink(
			1,
			2)
	}
}
`)
	res, err := Run([]*Target{tgt}, []*Analyzer{stmtAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	// The wrapped call's own first line is two below the directive; the
	// for statement (which the directive is adjacent to) encloses the
	// diagnostic but is not the innermost statement, so the diagnostic
	// survives and the directive is dead.
	var sawDeep, sawUnused bool
	for _, d := range res.Diagnostics {
		if d.Analyzer == "stmt" {
			sawDeep = true
		}
		if d.Analyzer == "lintdirective" && strings.Contains(d.Message, "unused") {
			sawUnused = true
		}
	}
	if !sawDeep || !sawUnused {
		t.Fatalf("want surviving diagnostic plus unused directive, got %v", res.Diagnostics)
	}
}

func TestPackageTail(t *testing.T) {
	cases := []struct{ path, want string }{
		{"liquid/internal/graph", "graph"},
		{"liquid/internal/lint/maporder", "lint/maporder"},
		{"internal/graph", "graph"},
		{"liquid/cmd/reproduce", ""},
		{"fmt", ""},
	}
	for _, c := range cases {
		if got := PackageTail(c.path); got != c.want {
			t.Errorf("PackageTail(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestInInternal(t *testing.T) {
	if !InInternal("liquid/internal/graph") || InInternal("liquid/cmd/reproduce") {
		t.Fatal("InInternal misclassifies")
	}
}
