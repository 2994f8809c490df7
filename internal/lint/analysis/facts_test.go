package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// markFact marks a function as interesting for the fake taint analyzer.
type markFact struct {
	Note string
}

func (*markFact) AFact() {}

// typeCheckedTarget parses and type-checks src as one package.
func typeCheckedTarget(t *testing.T, path, src string, imports ...string) *Target {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, strings.ReplaceAll(path, "/", "_")+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	pkg, _ := conf.Check(path, fset, []*ast.File{f}, info)
	return &Target{Path: path, Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info, Imports: imports}
}

// TestObjectFactRoundTrip drives the store through the Pass API: an
// analyzer exports a fact on a function in one package, and the fact is
// importable by key.
func TestObjectFactRoundTrip(t *testing.T) {
	tgt := typeCheckedTarget(t, "liquid/internal/fakedep", `package fakedep

func Tainted() {}

func Clean() {}
`)
	suite := []*Analyzer{{
		Name: "marker",
		Doc:  "marks Tainted",
		Run: func(pass *Pass) error {
			obj := pass.Pkg.Scope().Lookup("Tainted")
			if obj == nil {
				t.Fatal("Tainted not in scope")
			}
			pass.ExportObjectFact(obj, &markFact{Note: "observed"})
			return nil
		},
	}}
	store := make(factStore)
	if _, err := runPackage(tgt, suite, store); err != nil {
		t.Fatal(err)
	}

	obj := tgt.Pkg.Scope().Lookup("Tainted")
	var got markFact
	if !store.importObject(obj, &got) || got.Note != "observed" {
		t.Fatalf("fact not importable after export: %+v", got)
	}
	if store.importObject(tgt.Pkg.Scope().Lookup("Clean"), new(markFact)) {
		t.Fatal("Clean must carry no fact")
	}
}

// TestPackageFactAcrossTargets: a package fact exported while analyzing a
// dependency is importable from a dependent package's pass.
func TestPackageFactAcrossTargets(t *testing.T) {
	dep := typeCheckedTarget(t, "liquid/internal/fakedep", `package fakedep

func F() {}
`)
	top := typeCheckedTarget(t, "liquid/internal/faketop", `package faketop

func G() {}
`, "liquid/internal/fakedep")

	var sawNote string
	suite := []*Analyzer{{
		Name: "pkgfact",
		Doc:  "exports a package fact from the dep, imports it above",
		Run: func(pass *Pass) error {
			switch pass.Path {
			case "liquid/internal/fakedep":
				pass.ExportPackageFact(&markFact{Note: "from-dep"})
			case "liquid/internal/faketop":
				for _, imp := range pass.Imports {
					var f markFact
					if pass.ImportPackageFact(imp, &f) {
						sawNote = f.Note
					}
				}
			}
			return nil
		},
	}}
	if _, err := Run([]*Target{dep, top}, suite); err != nil {
		t.Fatal(err)
	}
	if sawNote != "from-dep" {
		t.Fatalf("package fact did not cross the dependency edge: %q", sawNote)
	}
}

// TestObjectKeyShapes pins the key grammar: plain functions, methods
// (pointer and value receivers sharing a key), package vars; fields and
// locals yield no key.
func TestObjectKeyShapes(t *testing.T) {
	tgt := typeCheckedTarget(t, "liquid/internal/fakekeys", `package fakekeys

type T struct{ f int }

func F() {}

func (t *T) M() {}

func (t T) V() {}

var X int
`)
	scope := tgt.Pkg.Scope()
	if got := ObjectKey(scope.Lookup("F")); got != "F" {
		t.Errorf("func key = %q, want F", got)
	}
	named := scope.Lookup("T").Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		want := "T." + m.Name()
		if got := ObjectKey(m); got != want {
			t.Errorf("method key = %q, want %q", got, want)
		}
	}
	if got := ObjectKey(scope.Lookup("X")); got != "X" {
		t.Errorf("var key = %q, want X", got)
	}
	field := named.Underlying().(*types.Struct).Field(0)
	if got := ObjectKey(field); got != "" {
		t.Errorf("field key = %q, want empty", got)
	}
}

// TestDepOnlyTargetReportsNothing: a DepOnly target still exports facts to
// its dependents, but Run drops its diagnostics and live suppressions.
func TestDepOnlyTargetReportsNothing(t *testing.T) {
	dep := typeCheckedTarget(t, "liquid/internal/fakedep", `package fakedep

func F() {}

//lint:ignore funcs justified
func H() {}
`)
	dep.DepOnly = true
	top := typeCheckedTarget(t, "liquid/internal/faketop", `package faketop

func G() {}
`, "liquid/internal/fakedep")

	var sawNote string
	suite := []*Analyzer{{
		Name: "funcs",
		Doc:  "flags every function; exports a package fact from the dep, imports it above",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						pass.Reportf(fd.Name.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			if pass.Path == "liquid/internal/fakedep" {
				pass.ExportPackageFact(&markFact{Note: "from-dep"})
			}
			var f markFact
			if pass.ImportPackageFact("liquid/internal/fakedep", &f) && pass.Path == "liquid/internal/faketop" {
				sawNote = f.Note
			}
			return nil
		},
	}}
	res, err := Run([]*Target{dep, top}, suite)
	if err != nil {
		t.Fatal(err)
	}
	if sawNote != "from-dep" {
		t.Fatalf("fact from a DepOnly target did not reach its dependent: %q", sawNote)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Message != "func G" {
		t.Fatalf("diagnostics = %v, want only faketop's func G", res.Diagnostics)
	}
	if len(res.Suppressions) != 0 {
		t.Fatalf("suppressions = %v, want none from the DepOnly target", res.Suppressions)
	}
}
