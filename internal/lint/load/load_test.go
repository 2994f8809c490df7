package load_test

import (
	"strings"
	"testing"

	"liquid/internal/lint/load"
)

// TestPackagesMultiPackageModule loads a module where one root imports
// another: both come back type-checked, dependency export data resolves,
// and roots are sorted by import path.
func TestPackagesMultiPackageModule(t *testing.T) {
	pkgs, err := load.Packages("testdata/multi", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if pkgs[0].ImportPath != "fixture/a" || pkgs[1].ImportPath != "fixture/b" {
		t.Fatalf("roots out of order: %s, %s", pkgs[0].ImportPath, pkgs[1].ImportPath)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) != 0 {
			t.Fatalf("%s: unexpected type errors: %v", p.ImportPath, p.TypeErrors)
		}
		if len(p.Files) == 0 || p.Types == nil || p.Info == nil || p.Fset == nil {
			t.Fatalf("%s: incomplete package: %+v", p.ImportPath, p)
		}
	}
	// The cross-package reference must have resolved through export data.
	b := pkgs[1]
	if b.Types.Scope().Lookup("Doubled") == nil {
		t.Fatal("fixture/b lost its Doubled declaration")
	}
}

// TestPackagesDefaultPattern: omitting patterns defaults to ./... .
func TestPackagesDefaultPattern(t *testing.T) {
	pkgs, err := load.Packages("testdata/multi")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
}

// TestPackagesCorruptModule pins the hard-error path: a module whose
// go.mod does not parse must fail loudly (a silent nil would let lint
// report "clean" on a tree it never saw).
func TestPackagesCorruptModule(t *testing.T) {
	_, err := load.Packages("../lintest/testdata/corrupt", "./...")
	if err == nil {
		t.Fatal("corrupt go.mod loaded")
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Fatalf("err = %v, want a go list failure", err)
	}
}

// TestPackagesParseError: a file that fails go/parser is a hard error too.
func TestPackagesParseError(t *testing.T) {
	_, err := load.Packages("testdata/parseerr", "./...")
	if err == nil {
		t.Fatal("unparseable package loaded")
	}
}

// TestPackagesTypeErrorIsLoud: a package that fails to compile (undefined
// identifier) is reported by go list as a package error and must fail the
// load — lint must never report "clean" on a tree it could not check. The
// error names the culprit so the failure is actionable.
func TestPackagesTypeErrorIsLoud(t *testing.T) {
	_, err := load.Packages("testdata/typeerr", "./...")
	if err == nil {
		t.Fatal("uncompilable package loaded silently")
	}
	if !strings.Contains(err.Error(), "undefinedIdentifier") {
		t.Fatalf("err = %v, want the undefined identifier named", err)
	}
}

// TestPackagesMissingDir: a directory that is not inside any module errors.
func TestPackagesMissingDir(t *testing.T) {
	if _, err := load.Packages("testdata/nosuchdir", "./..."); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// TestPackagesDepParseErrorIsRecorded: a dependency-only package that does
// not parse does not abort the load. It comes back with the error in Err,
// ahead of the root that imports it, which can then no longer resolve it.
func TestPackagesDepParseErrorIsRecorded(t *testing.T) {
	pkgs, err := load.Packages("testdata/depparse", "./root")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	dep, root := pkgs[0], pkgs[1]
	if dep.ImportPath != "fixture/broken" || !dep.DepOnly || dep.Err == nil {
		t.Fatalf("dependency = %s (DepOnly %v, Err %v), want fixture/broken with a parse error", dep.ImportPath, dep.DepOnly, dep.Err)
	}
	if root.ImportPath != "fixture/root" || root.DepOnly || root.Err != nil {
		t.Fatalf("root = %s (DepOnly %v, Err %v), want fixture/root loaded", root.ImportPath, root.DepOnly, root.Err)
	}
	if len(root.TypeErrors) == 0 {
		t.Fatal("root type-checked cleanly against an unparseable dependency")
	}
}
