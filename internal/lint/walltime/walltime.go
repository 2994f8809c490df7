// Package walltime keeps wall-clock reads out of result-bearing packages.
// reproduce_output.txt is byte-identical across runs and worker counts only
// because nothing in the experiment/election/simulation stack observes real
// time; timing lives in the engine's telemetry events and in cmd/, which
// render to stderr. A time.Now in a result path is how "byte-identical"
// silently becomes "almost identical".
//
// The check has two layers. Syntactically, time.Now/time.Since/time.Until
// are flagged in every internal package except the allowlist (engine,
// telemetry, server, lint — packages whose clock reads are audited sinks
// that never feed results). Interprocedurally, every function that reads the
// clock — or transitively calls one that does — carries a ReadsClock fact,
// and a result-bearing package calling a clock-tainted function from an
// allowlisted package is flagged at the call site: the allowlist stops
// being a laundering hole the moment engine exports an elapsed-seconds
// helper and election starts calling it. Tainted calls between in-scope
// packages are not re-flagged; the direct read is already a finding at its
// source.
//
// A tainted call only counts as laundering when its signature lets the
// reading escape: a callee returning float64 or time.Duration hands the
// clock to its caller, while one returning nothing — or only opaque handles
// defined in its own package, like telemetry's *Span — keeps the timing
// inside the audited sink, where reading it back is telemflow's beat.
//
// cmd/ and examples/ are out of scope: entry points own the clock.
// Durations as *data* (time.Duration values, timeouts, backoff arithmetic)
// are fine everywhere; only reading the clock is restricted.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"liquid/internal/lint/analysis"
)

// Analyzer is the walltime check.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "flags wall-clock reads in result-bearing packages, including reads laundered through allowlisted callees (ReadsClock facts)",
	Run:  run,
}

// ReadsClock marks a function that observes real time, directly or through
// any internal callee.
type ReadsClock struct{}

// AFact marks ReadsClock as a fact.
func (*ReadsClock) AFact() {}

// allowed lists internal packages that may read the clock: the engine emits
// elapsed-time telemetry on its event stream, which never reaches stdout or
// reproduce_output.txt.
var allowed = map[string]bool{
	"engine": true,
	// The lint tooling itself may time its own runs.
	"lint": true,
	// The telemetry layer owns spans and manifest timing; its reads never
	// feed back into results (that direction is telemflow's job to police).
	"telemetry": true,
	// The serving layer's clock reads are deadline mechanics and latency
	// telemetry; its evaluation results come from the election engine,
	// which stays in scope. telemflow still forbids the server reading
	// telemetry back, so a clock read cannot round-trip into a response.
	"server": true,
}

func inScope(path string) bool {
	if !analysis.InInternal(path) {
		return false
	}
	tail := analysis.PackageTail(path)
	if i := strings.IndexByte(tail, '/'); i >= 0 {
		tail = tail[:i]
	}
	return !allowed[tail]
}

// restricted are the clock-reading functions of package time.
var restricted = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	if !analysis.InInternal(pass.Path) {
		return nil
	}

	// Taint: which functions read the clock, directly or transitively. This
	// runs in every internal package — allowlisted ones included, since
	// that is where the facts that matter come from.
	tainted := make(map[*types.Func]bool)
	calls := make(map[*types.Func][]*types.Func)
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
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if callee, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func); ok {
					if isClockRead(callee) {
						tainted[fn] = true
					} else if callee.Pkg() != nil && analysis.InInternal(callee.Pkg().Path()) {
						calls[fn] = append(calls[fn], callee)
					}
				}
				return true
			})
			if id, ok := fnIdentCalls(pass, fd.Body); ok {
				calls[fn] = append(calls[fn], id...)
			}
			if _, seen := tainted[fn]; !seen {
				tainted[fn] = false
			}
		}
	}
	taintedOf := func(fn *types.Func) bool {
		if t, ok := tainted[fn]; ok {
			return t
		}
		return pass.ImportObjectFact(fn, &ReadsClock{})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range calls {
			if tainted[fn] {
				continue
			}
			for _, c := range cs {
				if taintedOf(c) {
					tainted[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn, t := range tainted {
		if t && analysis.ObjectKey(fn) != "" {
			pass.ExportObjectFact(fn, &ReadsClock{})
		}
	}

	if !inScope(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.ObjectOf(sel.Sel).(*types.Func)
			if !ok {
				return true
			}
			if isClockRead(fn) {
				pass.Reportf(sel.Pos(), "wall-clock read (time.%s) in a result-bearing package: byte-identical reproduction forbids observing real time here; emit timing from internal/engine telemetry or cmd/ instead", fn.Name())
				return true
			}
			// The interprocedural half: calling a clock-tainted function
			// that lives in an allowlisted package launders a read into a
			// result path with no time.Now in sight — but only when the
			// callee's results can carry the reading out.
			if fn.Pkg() != nil && analysis.InInternal(fn.Pkg().Path()) && !inScope(fn.Pkg().Path()) && leaksTime(fn) && taintedOf(fn) {
				pass.Reportf(sel.Pos(), "call to %s.%s launders a wall-clock read into a result-bearing package (ReadsClock fact): consume timing where it is produced, or move this call to cmd/", fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}

// fnIdentCalls lists same-package callees invoked by plain identifier.
func fnIdentCalls(pass *analysis.Pass, body ast.Node) ([]*types.Func, bool) {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if fn, ok := pass.Info.ObjectOf(id).(*types.Func); ok {
				out = append(out, fn)
			}
		}
		return true
	})
	return out, len(out) > 0
}

// isClockRead reports whether fn is one of package time's clock readers.
func isClockRead(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "time" && restricted[fn.Name()]
}

// leaksTime reports whether fn's results could carry a clock reading back to
// the caller. Opaque handles defined in the callee's own package (a
// telemetry *Span) and bare errors cannot; numbers, durations, and anything
// imported can.
func leaksTime(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return true
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if leakableType(res.At(i).Type(), fn.Pkg()) {
			return true
		}
	}
	return false
}

func leakableType(t types.Type, owner *types.Package) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return leakableType(t.Elem(), owner)
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil {
			return obj.Name() != "error" // universe types: error is opaque
		}
		return obj.Pkg() != owner
	case *types.Basic:
		return true
	default:
		return true // slices, funcs, interfaces: conservatively leakable
	}
}
