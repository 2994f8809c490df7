// Package load builds type-checked package targets for the lint analyzers
// using only the standard library: package discovery and dependency export
// data come from `go list -deps -export -json`, source files are parsed with
// go/parser, and type checking uses the gc importer fed with the export data
// the go command already produced. This is a deliberately small stand-in for
// golang.org/x/tools/go/packages, which the module does not depend on.
//
// Packages come back in dependency order (imports before importers), which
// is what lets the analysis framework's facts flow across package
// boundaries: by the time a dependent package is analyzed, every fact its
// dependencies exported is already in the store.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one listed, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	// DepOnly marks packages pulled in only as dependencies of the
	// requested patterns. They can be analyzed for facts but are not
	// lint-reporting roots.
	DepOnly bool
	// Imports holds the package's direct imports, restricted to packages
	// that are part of the same Packages result (module-local edges);
	// stdlib imports are dropped — no facts ever come from there.
	Imports []string
	// GoFiles are the absolute paths of the non-test Go sources.
	GoFiles []string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-checker complaints (missing export
	// data for an import, for example). Analyzers still run; the driver
	// surfaces these so a broken load is never mistaken for a clean lint.
	TypeErrors []error
	// Err records why a dependency-only package could not be loaded: one
	// of its files does not parse. Such a package has no usable syntax or
	// types and contributes no facts. A root that fails to parse fails
	// Packages instead.
	Err error
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Packages lists, parses and type-checks the packages matching patterns,
// resolved relative to dir (any directory inside the target module), and
// returns them with every module-local (non-stdlib) dependency, in
// dependency order. No patterns means ./... . A root that go list reports
// broken, or whose files do not parse, is a hard error — lint must never
// report "clean" on a tree it could not see. A dependency-only package
// whose files do not parse carries the error in its Err instead; one that
// merely fails to type-check is kept, with its TypeErrors, for the facts
// its partial types still yield.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	local := make(map[string]bool, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.Standard {
			local[lp.ImportPath] = true
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	pkgs := make(map[string]*Package, len(local))
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		p := &Package{
			ImportPath: lp.ImportPath,
			Dir:        lp.Dir,
			DepOnly:    lp.DepOnly,
			Fset:       fset,
		}
		for _, name := range lp.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(lp.Dir, name)
			}
			p.GoFiles = append(p.GoFiles, path)
		}
		for _, path := range lp.Imports {
			if local[path] {
				p.Imports = append(p.Imports, path)
			}
		}
		sort.Strings(p.Imports)
		if lp.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("load: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if p.Err = p.check(imp); p.Err != nil && !p.DepOnly {
			return nil, p.Err
		}
		pkgs[lp.ImportPath] = p
	}
	return topoSort(pkgs), nil
}

// topoSort orders packages dependencies-first, ties broken by import path
// so the order is deterministic.
func topoSort(pkgs map[string]*Package) []*Package {
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		p, ok := pkgs[path]
		if !ok || state[path] != 0 {
			// Import cycles cannot occur in compiled Go; a revisit means
			// the package is already placed (or being placed) and can be
			// skipped.
			return
		}
		state[path] = 1
		for _, imp := range p.Imports {
			visit(imp)
		}
		state[path] = 2
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

// check parses and type-checks the package. Type errors are collected in
// TypeErrors, not returned: analyzers degrade gracefully on partial
// information, and the driver decides what a type error costs.
func (p *Package) check(imp types.Importer) error {
	for _, path := range p.GoFiles {
		f, err := parser.ParseFile(p.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("load: parse %s: %w", path, err)
		}
		p.Files = append(p.Files, f)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	p.Types, _ = conf.Check(p.ImportPath, p.Fset, p.Files, p.Info)
	return nil
}

// goList runs `go list -e -deps -export -json` and decodes the stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Imports,Export,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %v in %s: %w\n%s", patterns, dir, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// exportImporter resolves imports from the export-data files `go list
// -export` reported, falling back through the gc importer's binary
// export-data reader.
type exportImporter struct {
	gc      types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}
