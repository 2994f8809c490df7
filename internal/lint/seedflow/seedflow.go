// Package seedflow enforces the repository's single-origin rule for
// randomness: every stream starts at rng.New and splits with
// rng.Derive/Stream.Derive. Ad-hoc seed arithmetic (seed+i, seed^k) was the
// bug class behind the correlated-sweep seeds retired in the engine PR — two
// sweep points one apart produced overlapping streams — and direct
// math/rand construction bypasses the SplitMix64 mixing that makes derived
// streams pairwise independent.
//
// The analyzer reports, everywhere outside internal/rng:
//
//   - imports of math/rand (v1) and math/rand/v2 — all generator
//     construction belongs behind rng.New;
//   - arithmetic whose operands mention a seed (ident or field named
//     *seed*): +, -, *, /, %, ^, |, &, &^, <<, >> in expressions, compound
//     assignments, and ++/--. Comparisons are fine; so is passing a seed
//     verbatim to rng.New/rng.Derive.
//
// Those two rules are syntactic and were once the whole check, which left a
// laundering hole: rename the parameter and the arithmetic disappears —
// `func mix(x uint64) uint64 { return x*k + 1 }` draws no finding, and
// `mix(seed)` used to draw none either. The fact layer closes it: every
// function whose parameter feeds raw arithmetic (directly, or by being
// passed into another raw parameter) carries a RawRand fact recording which
// parameters are raw, and passing anything seed-named into a raw parameter
// is flagged at the call site, across package boundaries. internal/rng is
// the one blessed mixing layer: it exports no RawRand facts and its callees
// are never flagged — rng.New(seed) is the fix, not a finding.
package seedflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"liquid/internal/lint/analysis"
)

// Analyzer is the seedflow check.
var Analyzer = &analysis.Analyzer{
	Name: "seedflow",
	Doc:  "flags raw seed arithmetic, math/rand use, and seeds passed into raw-mixing parameters (RawRand facts) outside internal/rng",
	Run:  run,
}

// RawRand marks a function with parameters that feed raw arithmetic instead
// of going through rng. Params holds the 0-based indices of those
// parameters.
type RawRand struct {
	Params []int
}

// AFact marks RawRand as a fact.
func (*RawRand) AFact() {}

func inScope(path string) bool {
	tail := analysis.PackageTail(path)
	return tail != "rng" && !strings.HasPrefix(tail, "rng/")
}

var arithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.XOR: true, token.OR: true, token.AND: true,
	token.AND_NOT: true, token.SHL: true, token.SHR: true,
}

var arithAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true, token.XOR_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true, token.AND_NOT_ASSIGN: true,
	token.SHL_ASSIGN: true, token.SHR_ASSIGN: true,
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Path) {
		return nil
	}
	raw := rawParams(pass)
	rawOf := func(fn *types.Func, idx int) bool {
		if set, ok := raw[fn]; ok {
			return set[idx]
		}
		if fn.Pkg() == nil || isRng(fn.Pkg().Path()) {
			return false // rng is the blessed mixing layer
		}
		var fact RawRand
		if pass.ImportObjectFact(fn, &fact) {
			for _, p := range fact.Params {
				if p == idx {
					return true
				}
			}
		}
		return false
	}
	for fn, set := range raw {
		if len(set) == 0 || analysis.ObjectKey(fn) == "" {
			continue
		}
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		pass.ExportObjectFact(fn, &RawRand{Params: idxs})
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand":
				pass.Reportf(imp.Pos(), "import of math/rand (v1): construct streams with rng.New and split with rng.Derive")
			case "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of math/rand/v2 outside internal/rng: construct streams with rng.New and split with rng.Derive")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithOps[n.Op] && (mentionsSeed(n.X) || mentionsSeed(n.Y)) {
					pass.Reportf(n.OpPos, "raw seed arithmetic (%s) breaks stream independence: derive substreams with rng.Derive(root, labels...) or Stream.Derive", n.Op)
				}
			case *ast.AssignStmt:
				if arithAssignOps[n.Tok] {
					for _, lhs := range n.Lhs {
						if mentionsSeed(lhs) {
							pass.Reportf(n.TokPos, "raw seed arithmetic (%s) breaks stream independence: derive substreams with rng.Derive(root, labels...) or Stream.Derive", n.Tok)
							break
						}
					}
				}
			case *ast.IncDecStmt:
				if mentionsSeed(n.X) {
					pass.Reportf(n.TokPos, "raw seed arithmetic (%s) breaks stream independence: derive substreams with rng.Derive(root, labels...) or Stream.Derive", n.Tok)
				}
			case *ast.CallExpr:
				fn := staticCallee(pass, n)
				if fn == nil {
					return true
				}
				for i, arg := range n.Args {
					if mentionsSeed(arg) && rawOf(fn, i) {
						pass.Reportf(arg.Pos(), "seed passed into raw-mixing parameter %d of %s (RawRand fact): the callee does unblessed arithmetic on it; derive substreams with rng.Derive instead", i, fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

func isRng(path string) bool {
	tail := analysis.PackageTail(path)
	return tail == "rng" || strings.HasPrefix(tail, "rng/")
}

// rawParams computes, for every function declared in this package, the set
// of parameter indices that feed raw arithmetic — directly, or by being
// passed on into another function's raw parameter (to a fixed point within
// the package; cross-package callees answer via RawRand facts).
func rawParams(pass *analysis.Pass) map[*types.Func]map[int]bool {
	type fdecl struct {
		fn     *types.Func
		body   *ast.BlockStmt
		params map[types.Object]int
	}
	var decls []fdecl
	raw := make(map[*types.Func]map[int]bool)
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
			params := make(map[types.Object]int)
			idx := 0
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						idx++
						continue
					}
					for _, name := range field.Names {
						if obj := pass.Info.ObjectOf(name); obj != nil {
							params[obj] = idx
						}
						idx++
					}
				}
			}
			decls = append(decls, fdecl{fn: fn, body: fd.Body, params: params})
			raw[fn] = make(map[int]bool)
		}
	}

	// Direct: a parameter appearing as an operand of arithmetic.
	for _, d := range decls {
		markOperand := func(e ast.Expr) {
			if i, ok := paramIn(pass, e, d.params); ok {
				raw[d.fn][i] = true
			}
		}
		ast.Inspect(d.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithOps[n.Op] {
					markOperand(n.X)
					markOperand(n.Y)
				}
			case *ast.AssignStmt:
				if arithAssignOps[n.Tok] {
					for _, lhs := range n.Lhs {
						markOperand(lhs)
					}
				}
			case *ast.IncDecStmt:
				markOperand(n.X)
			}
			return true
		})
	}

	// Transitive: a parameter handed on into a raw parameter elsewhere.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			ast.Inspect(d.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(pass, call)
				if callee == nil || callee.Pkg() == nil || isRng(callee.Pkg().Path()) {
					return true
				}
				for ai, arg := range call.Args {
					pi, isParam := paramIn(pass, arg, d.params)
					if !isParam || raw[d.fn][pi] {
						continue
					}
					calleeRaw := false
					if set, local := raw[callee]; local {
						calleeRaw = set[ai]
					} else {
						var fact RawRand
						if pass.ImportObjectFact(callee, &fact) {
							for _, p := range fact.Params {
								if p == ai {
									calleeRaw = true
									break
								}
							}
						}
					}
					if calleeRaw {
						raw[d.fn][pi] = true
						changed = true
					}
				}
				return true
			})
		}
	}
	return raw
}

// paramIn resolves e (through parens, derefs, and unary ops) to one of the
// function's parameters, returning its index.
func paramIn(pass *analysis.Pass, e ast.Expr, params map[types.Object]int) (int, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pass.Info.ObjectOf(e); obj != nil {
			i, ok := params[obj]
			return i, ok
		}
	case *ast.ParenExpr:
		return paramIn(pass, e.X, params)
	case *ast.StarExpr:
		return paramIn(pass, e.X, params)
	case *ast.UnaryExpr:
		return paramIn(pass, e.X, params)
	}
	return 0, false
}

// staticCallee resolves a call to its *types.Func, or nil.
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

// mentionsSeed reports whether e is an identifier or selector whose name
// contains "seed". Deliberately shallow: `seed + 1` and `cfg.Seed ^ k` are
// flagged, but `f(seed) + 1` is not — the seed there already went through a
// call that can mix it properly.
func mentionsSeed(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(e.Name), "seed")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(e.Sel.Name), "seed") || mentionsSeed(e.X)
	case *ast.ParenExpr:
		return mentionsSeed(e.X)
	case *ast.UnaryExpr:
		return mentionsSeed(e.X)
	case *ast.StarExpr:
		return mentionsSeed(e.X)
	case *ast.BinaryExpr:
		return mentionsSeed(e.X) || mentionsSeed(e.Y)
	}
	return false
}
