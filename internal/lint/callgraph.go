package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the call-graph engine the interprocedural analyzers
// (hotalloc, lockheld, the helper-aware maporder) ride on. It resolves
// static call edges: direct calls to package-level functions and
// methods whose receiver type is known at the call site, within one
// package and across the whole module. Calls through interface values,
// function-typed variables, and method values are left unresolved —
// they appear as external call sites carrying only a qualified name —
// so the analysis is a deliberate under-approximation, biased toward
// zero false negatives on the concrete hot paths it exists to guard.
//
// Determinism contract: FuncNodes are ordered by qualified name (ties —
// multiple init functions — broken by source position), and each node's
// call sites are in source order. The tests' DebugString renders exactly
// that order, so golden tests over the graph are byte-stable across runs.

// FuncNode is one function or method with a body in the analyzed
// packages.
type FuncNode struct {
	Obj  *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// ID is the qualified name in types.Func.FullName form, e.g.
	// "hopp/internal/mc.New" or "(*hopp/internal/cachesim.Cache).Access".
	ID string
	// Calls lists every static call site in the body, in source order.
	Calls []CallSite

	facts funcFacts
}

// CallSite is one resolved-or-not call expression inside a FuncNode.
type CallSite struct {
	// Callee is the target's node when the target has a body in the
	// analyzed packages; nil for stdlib functions, interface methods,
	// and anything else outside the set.
	Callee *FuncNode
	// ID is the target's qualified name, set whether or not Callee
	// resolved.
	ID   string
	Pos  token.Pos
	Call *ast.CallExpr
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	// Funcs holds every node, sorted by ID then position.
	Funcs []*FuncNode

	byObj map[*types.Func]*FuncNode
}

// NodeOf returns the node for a declared function object, if it has a
// body in the analyzed set.
func (g *CallGraph) NodeOf(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// buildCallGraph indexes every function declaration with a body, then
// resolves the call sites inside each.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{byObj: make(map[*types.Func]*FuncNode)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Pkg: p, Decl: fd, ID: obj.FullName()}
				g.byObj[obj] = n
				g.Funcs = append(g.Funcs, n)
			}
		}
	}
	sort.Slice(g.Funcs, func(i, j int) bool {
		a, b := g.Funcs[i], g.Funcs[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Pkg.Fset.Position(a.Decl.Pos()).Offset < b.Pkg.Fset.Position(b.Decl.Pos()).Offset
	})
	for _, n := range g.Funcs {
		n.Calls = collectCalls(g, n.Pkg, n.Decl.Body)
	}
	return g
}

// collectCalls walks a body and resolves each call expression to a
// static callee where possible. Function literal bodies are excluded:
// a closure handed to a worker pool, a defer, or a goroutine runs in a
// context this call path does not control, and charging its calls to
// the enclosing declaration manufactures false lock-order and
// reachability edges (the pool-promotion closure in
// service.settleFollowersLocked would otherwise look like a
// self-deadlock). The literal value itself still shows up where it
// matters — hotalloc flags the closure allocation.
func collectCalls(g *CallGraph, p *Package, body ast.Node) []CallSite {
	var calls []CallSite
	// A direct `go f(x)` gets the same treatment as `go func(){...}()`:
	// f runs on the spawned goroutine, not this call path, so charging
	// its facts here would manufacture the same false lock-order edges
	// the FuncLit exclusion exists to prevent (an engine spawning its
	// own pump under the registry lock is not a self-deadlock). The
	// spawn's arguments still evaluate on this path and are collected.
	spawned := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if gs, ok := node.(*ast.GoStmt); ok {
			spawned[gs.Call] = true
			return true
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if spawned[call] {
			return true
		}
		obj := staticCallee(p, call)
		if obj == nil {
			return true
		}
		calls = append(calls, CallSite{
			Callee: g.NodeOf(obj),
			ID:     obj.FullName(),
			Pos:    call.Pos(),
			Call:   call,
		})
		return true
	})
	return calls
}

// staticCallee resolves a call expression to the function object it
// invokes, when that is statically known: pkg.F(...), F(...), and
// method calls x.M(...) where x's type (and therefore the method set
// member) is concrete. Interface method calls resolve to the interface
// method object — which has no body in the set, so the edge stays
// external. Conversions and builtins return nil.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		paren, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = paren.X
	}
}

// Reachable walks call edges breadth-first from the given roots and
// returns, for every reachable node, the first root (in the given
// order) that reaches it. Roots map to themselves. Traversal order is
// deterministic: roots in order, then each node's call sites in source
// order.
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]*FuncNode {
	from := make(map[*FuncNode]*FuncNode)
	for _, root := range roots {
		if root == nil || from[root] != nil {
			continue
		}
		queue := []*FuncNode{root}
		from[root] = root
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, cs := range n.Calls {
				if cs.Callee == nil || from[cs.Callee] != nil {
					continue
				}
				from[cs.Callee] = root
				queue = append(queue, cs.Callee)
			}
		}
	}
	return from
}
