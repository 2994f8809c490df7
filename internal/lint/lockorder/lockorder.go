// Package lockorder detects lock-acquisition order cycles across the whole
// internal/ tree. The serving path holds locks across package boundaries —
// the server's admission mutex is held while election code runs, election
// aggregates while prob caches fill — and two call chains that acquire the
// same two mutexes in opposite orders deadlock only under load, long after
// the code reviews that introduced each half.
//
// The analyzer builds an acquisition graph whose nodes are named locks
// (package-level sync.Mutex/RWMutex variables and struct mutex fields,
// identified textually as pkg.Var or pkg.Type.Field) and whose edges record
// "locked B while holding A". Edges come from direct nesting inside one
// function and, interprocedurally, from calling a function that acquires
// locks — each function's transitive acquisition set is exported as an
// Acquires fact, so the edge server.mu → prob.cacheMu exists even though no
// single function mentions both. Every package also exports its accumulated
// graph as a LockGraph package fact; a dependent package unions the graphs
// of its imports with its own edges and reports any cycle that a locally
// created edge closes, so each cycle is reported exactly once, in the
// package that completed it.
//
// The held-set tracking is a linear, branch-insensitive replay: an Unlock on
// any path releases, a deferred Unlock holds to function end. That
// overestimates neither direction badly in this codebase's lock style
// (lock/defer-unlock or strict lock/unlock bracketing) and keeps the
// analysis cheap enough for every make check.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"liquid/internal/lint/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "detects lock-acquisition order cycles, including across packages via Acquires facts",
	Run:  run,
}

// Acquires is the object fact attached to a function: the set of named locks
// the function may acquire, directly or through its callees.
type Acquires struct {
	Locks []string
}

// AFact marks Acquires as a fact.
func (*Acquires) AFact() {}

// Edge is one "To acquired while holding From" observation.
type Edge struct {
	From string
	To   string
}

// LockGraph is the package fact carrying the acquisition graph accumulated
// over the package and its analyzed dependencies.
type LockGraph struct {
	Edges []Edge
}

// AFact marks LockGraph as a fact.
func (*LockGraph) AFact() {}

// event kinds in a function body, in (approximate) execution order.
const (
	evLock = iota
	evUnlock
	evCall
)

type event struct {
	kind     int
	key      string      // lock identity for evLock/evUnlock
	fn       *types.Func // callee for evCall
	pos      token.Pos
	deferred bool
}

// lockMethods classifies the sync mutex methods we model. TryLock variants
// are ignored: a failed TryLock acquires nothing, and modeling the success
// path would manufacture edges the code may deliberately avoid.
var lockMethods = map[string]int{
	"Lock":    evLock,
	"RLock":   evLock,
	"Unlock":  evUnlock,
	"RUnlock": evUnlock,
}

func run(pass *analysis.Pass) error {
	if !analysis.InInternal(pass.Path) {
		return nil
	}

	// Pass 1: per function, collect lock/unlock/call events.
	funcEvents := make(map[*types.Func][]event)
	var order []*types.Func // source order, for deterministic replay
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
			funcEvents[fn] = collectEvents(pass, fd.Body)
			order = append(order, fn)
		}
	}

	// Pass 2: transitive acquisition sets, to a fixed point over the
	// same-package call graph; cross-package callees contribute through
	// their imported Acquires facts.
	acq := make(map[*types.Func]map[string]bool, len(funcEvents))
	for fn, evs := range funcEvents {
		set := make(map[string]bool)
		for _, ev := range evs {
			if ev.kind == evLock {
				set[ev.key] = true
			}
		}
		acq[fn] = set
	}
	acquiresOf := func(fn *types.Func) []string {
		if set, ok := acq[fn]; ok {
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return keys
		}
		var fact Acquires
		if pass.ImportObjectFact(fn, &fact) {
			return fact.Locks
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for fn, evs := range funcEvents {
			for _, ev := range evs {
				if ev.kind != evCall {
					continue
				}
				for _, k := range acquiresOf(ev.fn) {
					if !acq[fn][k] {
						acq[fn][k] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: replay events with a held set, creating edges.
	type edgePos struct {
		e   Edge
		pos token.Pos
	}
	localEdges := make(map[Edge]token.Pos)
	var localOrder []edgePos
	addEdge := func(from, to string, pos token.Pos) {
		if from == to {
			return
		}
		e := Edge{From: from, To: to}
		if _, ok := localEdges[e]; !ok {
			localEdges[e] = pos
			localOrder = append(localOrder, edgePos{e, pos})
		}
	}
	for _, fn := range order {
		var held []string
		for _, ev := range funcEvents[fn] {
			switch ev.kind {
			case evLock:
				for _, h := range held {
					addEdge(h, ev.key, ev.pos)
				}
				held = append(held, ev.key)
			case evUnlock:
				if ev.deferred {
					continue // held to function end
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evCall:
				for _, h := range held {
					for _, a := range acquiresOf(ev.fn) {
						addEdge(h, a, ev.pos)
					}
				}
			}
		}
	}

	// Union the graphs of analyzed dependencies with the local edges and
	// publish the result for packages above us.
	combined := make(map[Edge]bool, len(localEdges))
	for e := range localEdges {
		combined[e] = true
	}
	for _, imp := range pass.Imports {
		var g LockGraph
		if pass.ImportPackageFact(imp, &g) {
			for _, e := range g.Edges {
				combined[e] = true
			}
		}
	}
	all := make([]Edge, 0, len(combined))
	for e := range combined {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].From != all[j].From {
			return all[i].From < all[j].From
		}
		return all[i].To < all[j].To
	})
	pass.ExportPackageFact(&LockGraph{Edges: all})
	for fn, set := range acq {
		if len(set) == 0 || analysis.ObjectKey(fn) == "" {
			continue
		}
		pass.ExportObjectFact(fn, &Acquires{Locks: acquiresOf(fn)})
	}

	// Pass 4: report each cycle that a local edge closes, once, at the
	// earliest local edge participating in it.
	adj := make(map[string][]string)
	for e := range combined {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}
	sort.Slice(localOrder, func(i, j int) bool { return localOrder[i].pos < localOrder[j].pos })
	reported := make(map[string]bool)
	for _, ep := range localOrder {
		path := shortestPath(adj, ep.e.To, ep.e.From)
		if path == nil {
			continue
		}
		// path runs To..From; drop the closing From so the cycle lists each
		// node once.
		cycle := append([]string{ep.e.From}, path[:len(path)-1]...)
		sig := canonicalCycle(cycle)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		pass.Reportf(ep.pos, "lock order cycle: %s -> %s (this acquisition closes the cycle; pick one global order)",
			strings.Join(cycle, " -> "), cycle[0])
	}
	return nil
}

// collectEvents walks a function body and returns its lock events in
// position order.
func collectEvents(pass *analysis.Pass, body *ast.BlockStmt) []event {
	var events []event
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if ok {
				if fn, isFn := pass.Info.ObjectOf(sel.Sel).(*types.Func); isFn &&
					fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					kind, isLockOp := lockMethods[fn.Name()]
					if isLockOp {
						if key := lockKey(pass, sel.X); key != "" {
							events = append(events, event{kind: kind, key: key, pos: x.Pos(), deferred: deferred[x]})
						}
						return true
					}
				}
			}
			if fn := callee(pass, x); fn != nil && fn.Pkg() != nil && analysis.InInternal(fn.Pkg().Path()) {
				events = append(events, event{kind: evCall, fn: fn, pos: x.Pos()})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockKey names the lock behind the receiver expression of a Lock call:
// pkg.Var for package-level mutexes, pkg.Type.Field for struct fields.
// Locals and unrecognized shapes yield "" and are ignored — a function-local
// mutex cannot participate in a cross-function order cycle under this
// codebase's conventions.
func lockKey(pass *analysis.Pass, expr ast.Expr) string {
	switch x := expr.(type) {
	case *ast.Ident:
		if v, ok := pass.Info.ObjectOf(x).(*types.Var); ok &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			recv := sel.Recv()
			for {
				p, ok := recv.(*types.Pointer)
				if !ok {
					break
				}
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && field.Pkg() != nil {
				return fmt.Sprintf("%s.%s.%s", field.Pkg().Path(), named.Obj().Name(), field.Name())
			}
			return ""
		}
		// Qualified package-level var: otherpkg.Mu.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := pass.Info.ObjectOf(id).(*types.PkgName); isPkg {
				if v, ok := pass.Info.ObjectOf(x.Sel).(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	}
	return ""
}

// callee resolves a call expression to its static *types.Func, or nil.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
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

// shortestPath returns the node sequence from src to dst (inclusive of both)
// by BFS, or nil when dst is unreachable.
func shortestPath(adj map[string][]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range adj[n] {
			if _, seen := prev[m]; seen {
				continue
			}
			prev[m] = n
			if m == dst {
				var path []string
				for at := dst; ; at = prev[at] {
					path = append([]string{at}, path...)
					if at == src {
						return path
					}
				}
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// canonicalCycle produces a rotation-independent signature for a cycle.
func canonicalCycle(nodes []string) string {
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	return strings.Join(sorted, "|")
}
