// Package hotalloc keeps annotated hot paths allocation-free. The inner
// kernels — FFT butterflies, convolution dynamic programs, the recycler's
// summation loops — run millions of times per evaluation sweep; one heap
// allocation inside them turns a memory-bandwidth-bound loop into a GC
// benchmark. Escape analysis is invisible in review: an innocent-looking
// append or closure compiles fine and costs 30% at runtime.
//
// Functions opt in with a //lint:hotpath line in their doc comment. Inside
// an annotated function the analyzer flags the constructs that heap-allocate
// or are likely to: make/new calls, slice and map composite literals,
// &T{...} escapes, append growth, closures that capture variables, and
// concrete-to-interface conversions (boxing) at call and return sites.
// Callees are cross-checked interprocedurally: every internal function that
// allocates — directly or through its own callees — carries an Allocates
// fact, so a hot function calling a helper three packages away is flagged at
// the call site when the helper allocates, and accepted when the whole
// callee cone is clean. Standard-library callees carry no facts and are
// trusted; hot kernels call math and nothing else.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"liquid/internal/lint/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbids heap allocation in //lint:hotpath functions, cross-checked against callee Allocates facts",
	Run:  run,
}

// Allocates marks a function that may heap-allocate, directly or through a
// callee. Reason describes the first allocation site, for call-site
// diagnostics in dependent packages.
type Allocates struct {
	Reason string
}

// AFact marks Allocates as a fact.
func (*Allocates) AFact() {}

// site is one allocating construct inside a function.
type site struct {
	pos  token.Pos
	what string
}

func run(pass *analysis.Pass) error {
	if !analysis.InInternal(pass.Path) {
		return nil
	}

	// Pass 1: direct allocation sites and internal callees per function.
	type funcInfo struct {
		decl  *ast.FuncDecl
		sites []site
		calls []callSite
	}
	infos := make(map[*types.Func]*funcInfo)
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			infos[fn] = &funcInfo{decl: fd, sites: directSites(pass, fd), calls: internalCalls(pass, fd.Body)}
			order = append(order, fn)
		}
	}

	// Pass 2: propagate "may allocate" through the call graph to a fixed
	// point. A function allocates when it has a direct site or any internal
	// callee allocates; cross-package callees answer via their fact.
	reason := make(map[*types.Func]string, len(infos))
	for fn, info := range infos {
		if len(info.sites) > 0 {
			reason[fn] = info.sites[0].what
		}
	}
	reasonOf := func(fn *types.Func) (string, bool) {
		if r, ok := reason[fn]; ok {
			return r, ok
		}
		if _, local := infos[fn]; local {
			return "", false
		}
		var fact Allocates
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Reason, true
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for fn, info := range infos {
			if _, done := reason[fn]; done {
				continue
			}
			for _, c := range info.calls {
				if _, allocs := reasonOf(c.fn); allocs {
					reason[fn] = fmt.Sprintf("calls %s", calleeName(c.fn))
					changed = true
					break
				}
			}
		}
	}
	for fn, r := range reason {
		if analysis.ObjectKey(fn) != "" {
			pass.ExportObjectFact(fn, &Allocates{Reason: r})
		}
	}

	// Pass 3: report inside annotated functions only.
	for _, fn := range order {
		info := infos[fn]
		if !analysis.HasHotpath(info.decl) {
			continue
		}
		for _, s := range info.sites {
			pass.Reportf(s.pos, "%s in a //lint:hotpath function; hoist the allocation out of the hot loop", s.what)
		}
		for _, c := range info.calls {
			if r, allocs := reasonOf(c.fn); allocs {
				pass.Reportf(c.pos, "calls %s, which allocates (%s), in a //lint:hotpath function", calleeName(c.fn), r)
			}
		}
	}
	return nil
}

// calleeName renders a callee as pkgtail.Name for diagnostics.
func calleeName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	tail := analysis.PackageTail(fn.Pkg().Path())
	if tail == "" {
		tail = fn.Pkg().Name()
	}
	return tail + "." + fn.Name()
}

// directSites walks a function declaration and records every construct that
// heap-allocates (or plausibly does).
func directSites(pass *analysis.Pass, fd *ast.FuncDecl) []site {
	var out []site
	add := func(pos token.Pos, what string) {
		out = append(out, site{pos: pos, what: what})
	}
	var results *types.Tuple
	if sig, ok := pass.Info.ObjectOf(fd.Name).(*types.Func); ok {
		results = sig.Type().(*types.Signature).Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "append":
						add(x.Pos(), "append may grow the backing array")
					case "make":
						add(x.Pos(), "make allocates")
					case "new":
						add(x.Pos(), "new allocates")
					}
					return true
				}
			}
			boxingSites(pass, x, add)
		case *ast.CompositeLit:
			if t := pass.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(x.Pos(), "slice literal allocates")
				case *types.Map:
					add(x.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isComposite := x.X.(*ast.CompositeLit); isComposite {
					add(x.Pos(), "escaping composite literal (&T{...})")
				}
			}
		case *ast.FuncLit:
			if captures(pass, x) {
				add(x.Pos(), "closure captures variables")
			}
		case *ast.ReturnStmt:
			if results == nil || len(x.Results) != results.Len() {
				return true
			}
			for i, res := range x.Results {
				if boxes(pass, res, results.At(i).Type()) {
					add(res.Pos(), "return boxes a concrete value into an interface")
				}
			}
		}
		return true
	})
	return out
}

// boxingSites flags call arguments whose concrete value is converted to an
// interface parameter, and conversions T(x) to an interface type.
func boxingSites(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string)) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(pass, call.Args[0], tv.Type) {
			add(call.Pos(), "conversion boxes a concrete value into an interface")
		}
		return
	}
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass, arg, pt) {
			add(arg.Pos(), "argument boxes a concrete value into an interface parameter")
		}
	}
}

// boxes reports whether passing expr as target heap-boxes it: the target is
// an interface and the expression's static type is concrete and non-nil.
func boxes(pass *analysis.Pass, expr ast.Expr, target types.Type) bool {
	if target == nil || !types.IsInterface(target) {
		return false
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	return !types.IsInterface(tv.Type)
}

// captures reports whether the function literal references variables
// declared outside it (excluding package-level state, which needs no heap
// cell).
func captures(pass *analysis.Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return !found
	})
	return found
}

// callSite is one statically resolvable call to a module-internal function.
type callSite struct {
	fn  *types.Func
	pos token.Pos
}

// internalCalls lists body's calls into internal/ packages (including this
// one), the set whose Allocates facts are cross-checked.
func internalCalls(pass *analysis.Pass, body ast.Node) []callSite {
	var out []callSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var fn *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			fn, _ = pass.Info.ObjectOf(fun).(*types.Func)
		case *ast.SelectorExpr:
			fn, _ = pass.Info.ObjectOf(fun.Sel).(*types.Func)
		}
		if fn != nil && fn.Pkg() != nil && analysis.InInternal(fn.Pkg().Path()) {
			out = append(out, callSite{fn: fn, pos: call.Pos()})
		}
		return true
	})
	return out
}
