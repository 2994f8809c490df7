// Package goroleak requires every goroutine spawned in internal/ to be
// joinable: the spawning code must be able to observe its completion. The
// evaluation pipeline forks workers per shard and the daemon forks per
// request; a goroutine nobody collects outlives the request that spawned it,
// holds its capture set forever, and turns a bounded service into a slow
// memory leak that only shows up in day-long runs.
//
// A goroutine counts as joined when its body (or, for `go f(...)`, the
// called function) signals completion on some path: a sync.WaitGroup.Done
// call, a channel send or close (the result-collection idiom), a channel
// receive or range (bounded by the sender closing), or observing
// ctx.Done(). Named workers carry that property across package boundaries
// as a Completes object fact, so `go pool.Worker(...)` is fine when
// pool.Worker demonstrably signals, and flagged when it cannot. The check
// is an existence heuristic — it asks whether any completion signal exists,
// not whether every path reaches one — so it never flags a collectable
// goroutine, at the cost of trusting signals on cold paths.
package goroleak

import (
	"go/ast"
	"go/types"

	"liquid/internal/lint/analysis"
)

// Analyzer is the goroleak check.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "flags go statements whose goroutine is never joined (no WaitGroup, channel, or context signal)",
	Run:  run,
}

// Completes marks a function that signals its own completion — via
// WaitGroup.Done, a channel operation, or a context — so goroutines running
// it can be collected by the spawner.
type Completes struct{}

// AFact marks Completes as a fact.
func (*Completes) AFact() {}

func run(pass *analysis.Pass) error {
	if !analysis.InInternal(pass.Path) {
		return nil
	}

	// Pass 1: which package functions signal completion, directly or through
	// a callee (fixed point over the same-package call graph; cross-package
	// callees answer through their Completes fact).
	completes := make(map[*types.Func]bool)
	calls := make(map[*types.Func][]*types.Func)
	var decls []*ast.FuncDecl
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
			decls = append(decls, fd)
			completes[fn] = signals(pass, fd.Body)
			calls[fn] = callees(pass, fd.Body)
		}
	}
	completesOf := func(fn *types.Func) bool {
		if done, ok := completes[fn]; ok {
			return done
		}
		return pass.ImportObjectFact(fn, &Completes{})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range calls {
			if completes[fn] {
				continue
			}
			for _, c := range cs {
				if completesOf(c) {
					completes[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn, done := range completes {
		if done && analysis.ObjectKey(fn) != "" {
			pass.ExportObjectFact(fn, &Completes{})
		}
	}

	// Pass 2: audit every go statement.
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if joined(pass, g, completesOf) {
				return true
			}
			pass.Reportf(g.Pos(), "goroutine is not joined: no WaitGroup.Done, channel operation, or ctx.Done() signal on any path; collect it or bind it to a checked context")
			return true
		})
	}
	return nil
}

// joined reports whether the goroutine spawned by g is collectable.
func joined(pass *analysis.Pass, g *ast.GoStmt, completesOf func(*types.Func) bool) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if signals(pass, lit.Body) {
			return true
		}
		for _, c := range callees(pass, lit.Body) {
			if completesOf(c) {
				return true
			}
		}
		return false
	}
	fn := staticCallee(pass, g.Call)
	return fn != nil && completesOf(fn)
}

// signals reports whether body contains any completion signal: a channel
// send, receive, close, or range; or a sync.WaitGroup.Done call.
func signals(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func); ok &&
					fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// callees lists the module-internal functions body statically calls.
func callees(pass *analysis.Pass, body ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(pass, call); fn != nil && fn.Pkg() != nil && analysis.InInternal(fn.Pkg().Path()) {
			out = append(out, fn)
		}
		return true
	})
	return out
}

// staticCallee resolves a call to its *types.Func, or nil for func values
// and builtins.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.Info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}
