// Package analysis is a small, dependency-free subset of the
// golang.org/x/tools/go/analysis framework: just enough structure to write
// the repository's custom static analyzers (see cmd/liquidlint) without
// pulling x/tools into the module.
//
// An Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Analyzers may also attach Facts to package-level
// objects (and to packages themselves); when the driver feeds packages in
// dependency order — internal/lint/load returns them topologically sorted —
// a dependent package's Pass can import those facts and reason across
// package boundaries (see facts.go). Suppression is uniform across
// analyzers: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line, on the line immediately above it, or on (or above)
// the first line of the multi-line statement containing the flagged
// position, silences the named analyzers there. The reason is mandatory; a
// bare directive is itself reported as a violation so suppressions stay
// auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -disable/-only flags,
	// and lint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects a package and reports findings via pass.Report. A nil
	// Run marks a pseudo-analyzer handled by the framework itself
	// (Directive); drivers list it but never invoke it.
	Run func(pass *Pass) error
}

// Directive is the pseudo-analyzer under which the framework reports
// malformed and unused lint:ignore directives. It has no Run of its own —
// directive auditing happens inside Run — but listing it in the
// suite makes the name addressable by -only/-disable and -list.
var Directive = &Analyzer{
	Name: "lintdirective",
	Doc:  "audits lint:ignore directives: reasonless or dead suppressions are findings",
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path (e.g. "liquid/internal/graph").
	Path string
	Fset *token.FileSet
	// Files holds the parsed non-test Go files of the package.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Imports lists the package's direct imports (import paths), for
	// analyzers that aggregate package facts across the dependency edge.
	Imports []string

	report func(Diagnostic)
	facts  factStore
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     at.Filename,
		Line:     at.Line,
		Column:   at.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// ExportObjectFact attaches f to the package-level object obj. Objects
// facts cannot attach to (locals, struct fields) are silently skipped.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	p.facts.exportObject(obj, f)
}

// ImportObjectFact copies the fact of f's type attached to obj into f,
// reporting whether one was found. obj may come from export data: facts are
// keyed by the object's textual path, not its identity.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	return p.facts.importObject(obj, f)
}

// ExportPackageFact attaches f to the package being analyzed.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts[factKey{pkg: p.Path, typ: factTypeName(f)}] = f
}

// ImportPackageFact copies the package fact of f's type attached to path
// into f, reporting whether one was found.
func (p *Pass) ImportPackageFact(path string, f Fact) bool {
	return p.facts.copyInto(factKey{pkg: path, typ: factTypeName(f)}, f)
}

// Diagnostic is one finding, locatable in the source tree.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Target bundles what a driver needs to analyze one package.
type Target struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Imports lists the package's direct imports; drivers that feed
	// packages in dependency order populate it so package facts can be
	// aggregated edge by edge.
	Imports []string
	// DepOnly marks a package analyzed only for the facts its dependents
	// import: Run drops its diagnostics and suppressions.
	DepOnly bool
}

// Result is the outcome of running a suite over one or more packages.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressions counts live lint:ignore directives per analyzer: a
	// directive is live when it suppressed at least one diagnostic of that
	// analyzer in this run. Dead directives are not counted here — they are
	// lintdirective findings instead.
	Suppressions map[string]int
}

// merge folds o into r.
func (r *Result) merge(o *Result) {
	r.Diagnostics = append(r.Diagnostics, o.Diagnostics...)
	for name, n := range o.Suppressions {
		r.Suppressions[name] += n
	}
}

// sortDiagnostics orders diagnostics by position for stable output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string // names, or ["all"]
	hasReason bool
	used      map[string]bool // analyzer names this directive suppressed
}

const ignorePrefix = "//lint:ignore"

// HotpathDirective is the annotation hotalloc keys on: a function whose doc
// comment (or the line above its declaration) carries it must stay free of
// heap allocation. Parsed here so the directive grammar lives in one place.
const HotpathDirective = "//lint:hotpath"

// HasHotpath reports whether fd carries a lint:hotpath annotation in its
// doc comment.
func HasHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, HotpathDirective) {
			return true
		}
	}
	return false
}

// parseIgnores extracts lint:ignore directives from a file's comments.
func parseIgnores(fset *token.FileSet, f *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			pos := fset.Position(c.Pos())
			d := &ignoreDirective{file: pos.Filename, line: pos.Line, used: make(map[string]bool)}
			if len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						d.analyzers = append(d.analyzers, name)
					}
				}
			}
			d.hasReason = len(fields) >= 2
			out = append(out, d)
		}
	}
	return out
}

// matches reports whether the directive covers diag. stmtStart is the first
// line of the innermost multi-line statement containing the diagnostic (0
// when none): a directive on that line, or the line above it, covers
// diagnostics anywhere inside the statement — the flagged expression of a
// wrapped call or composite is often lines below where a suppression can
// syntactically go.
func (d *ignoreDirective) matches(diag Diagnostic, stmtStart int) bool {
	if diag.File != d.file {
		return false
	}
	// A directive covers its own line (inline comment), the line
	// immediately below (stand-alone comment above the flagged statement),
	// and the extent of the statement whose first line it sits on or above.
	covered := diag.Line == d.line || diag.Line == d.line+1 ||
		(stmtStart > 0 && (stmtStart == d.line || stmtStart == d.line+1))
	if !covered {
		return false
	}
	for _, name := range d.analyzers {
		if name == "all" || name == diag.Analyzer {
			return true
		}
	}
	return false
}

// stmtStarts indexes the statements of a file by line extent so suppression
// matching can find the statement enclosing a diagnostic.
type stmtStarts struct {
	fset  *token.FileSet
	files map[string]*ast.File
}

func newStmtStarts(fset *token.FileSet, files []*ast.File) *stmtStarts {
	idx := &stmtStarts{fset: fset, files: make(map[string]*ast.File, len(files))}
	for _, f := range files {
		idx.files[fset.Position(f.Pos()).Filename] = f
	}
	return idx
}

// enclosingStart returns the first line of the innermost statement (blocks
// excluded — a block would cover a whole function body) that spans the
// diagnostic's line in its file, or 0 when there is none or the statement
// is single-line.
func (idx *stmtStarts) enclosingStart(d Diagnostic) int {
	f, ok := idx.files[d.File]
	if !ok {
		return 0
	}
	best, bestEnd := 0, 1<<31
	ast.Inspect(f, func(n ast.Node) bool {
		s, isStmt := n.(ast.Stmt)
		if !isStmt {
			return true
		}
		if _, isBlock := s.(*ast.BlockStmt); isBlock {
			return true
		}
		start := idx.fset.Position(s.Pos()).Line
		end := idx.fset.Position(s.End()).Line
		if start == end || d.Line < start || d.Line > end {
			return true
		}
		// Innermost wins: latest start, then tightest end.
		if start > best || (start == best && end < bestEnd) {
			best, bestEnd = start, end
		}
		return true
	})
	return best
}

// runPackage applies analyzers to one package, sharing facts through store.
// Suppression directives are resolved within the package; the returned
// diagnostics are sorted by position.
func runPackage(tgt *Target, analyzers []*Analyzer, store factStore) (*Result, error) {
	var diags []Diagnostic
	var directives []*ignoreDirective
	for _, f := range tgt.Files {
		directives = append(directives, parseIgnores(tgt.Fset, f)...)
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Path:     tgt.Path,
			Fset:     tgt.Fset,
			Files:    tgt.Files,
			Pkg:      tgt.Pkg,
			Info:     tgt.Info,
			Imports:  tgt.Imports,
			facts:    store,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, tgt.Path, err)
		}
	}

	idx := newStmtStarts(tgt.Fset, tgt.Files)
	kept := diags[:0]
	for _, d := range diags {
		stmtStart := idx.enclosingStart(d)
		suppressed := false
		for _, dir := range directives {
			if dir.hasReason && len(dir.analyzers) > 0 && dir.matches(d, stmtStart) {
				dir.used[d.Analyzer] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	result := &Result{Suppressions: make(map[string]int)}
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	for _, dir := range directives {
		if len(dir.analyzers) == 0 || !dir.hasReason {
			kept = append(kept, Diagnostic{
				Analyzer: Directive.Name,
				File:     dir.file,
				Line:     dir.line,
				Column:   1,
				Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer>[,<analyzer>] <reason>",
			})
			continue
		}
		if len(dir.used) > 0 {
			for name := range dir.used {
				result.Suppressions[name]++
			}
			continue
		}
		// Only call a directive dead when every analyzer it names actually
		// ran: under -disable (or single-analyzer fixture runs) a directive
		// for a skipped analyzer may simply not have had its chance.
		ran := true
		for _, name := range dir.analyzers {
			if name != "all" && !active[name] {
				ran = false
				break
			}
		}
		if ran {
			kept = append(kept, Diagnostic{
				Analyzer: Directive.Name,
				File:     dir.file,
				Line:     dir.line,
				Column:   1,
				Message:  fmt.Sprintf("unused lint:ignore directive (%s): nothing here is flagged; delete it", strings.Join(dir.analyzers, ",")),
			})
		}
	}
	sortDiagnostics(kept)
	result.Diagnostics = kept
	return result, nil
}

// Run applies analyzers to targets — which must be in dependency order for
// cross-package facts to resolve — and returns the surviving diagnostics
// sorted by position plus per-analyzer live-suppression counts. Facts stay
// in memory for the one run. A DepOnly target only exports facts: its
// diagnostics and suppressions are dropped. lint:ignore directives are
// honored; malformed or unused directives produce their own diagnostics so
// dead suppressions get cleaned up rather than rotting.
func Run(targets []*Target, analyzers []*Analyzer) (*Result, error) {
	store := make(factStore)
	total := &Result{Suppressions: make(map[string]int)}
	for _, tgt := range targets {
		r, err := runPackage(tgt, analyzers, store)
		if err != nil {
			return nil, err
		}
		if !tgt.DepOnly {
			total.merge(r)
		}
	}
	sortDiagnostics(total.Diagnostics)
	return total, nil
}

// PackageTail returns the path segment(s) after the last "internal/"
// element, or "" when the path has no internal element. Analyzers use it to
// scope themselves by package identity independent of the module name, so
// the same scoping works for "liquid/internal/graph" and for fixture
// modules in testdata.
func PackageTail(path string) string {
	const marker = "internal/"
	i := strings.LastIndex(path, marker)
	if i < 0 {
		if path == "internal" {
			return ""
		}
		return ""
	}
	return path[i+len(marker):]
}

// InInternal reports whether the import path is under an internal/ tree.
func InInternal(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/")
}
