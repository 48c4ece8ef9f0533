package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc guards the zero-allocation steady state PR 7 bought: from a
// declared set of hot-path roots — functions annotated
// //hopplint:hotpath — every
// module function reachable over static call edges is scanned for
// allocation-inducing constructs. The benchmark gate catches an
// allocation regression after the fact; this analyzer catches it in
// review, the way the paper's hardware hot-page detector watches the
// access stream so software never has to sample it.
//
// Flagged constructs: make/new, map and slice composite literals,
// &struct literals, function literals (closures), append (growth is
// amortized at best, and never free), runtime string concatenation,
// calls into known-allocating stdlib functions (fmt, strconv
// formatting, errors.New, io.ReadAll), and interface boxing at call
// sites — a concrete value passed to an interface parameter, the
// classic way a refactor silently re-introduces per-access garbage.
// Arguments to panic() are exempt: a panicking hot path is already off
// the cliff. Audited sites carry //hopplint:allocok <reason>; the
// reason is mandatory.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation-inducing constructs reachable from //hopplint:hotpath roots without //hopplint:allocok <reason>",
	Run:  runHotAlloc,
}

func runHotAlloc(m *Module) []Diagnostic {
	var roots []*FuncNode
	for _, n := range m.Graph.Funcs {
		if _, ok := n.Pkg.waiver(n.Decl.Pos(), "hotpath"); ok {
			roots = append(roots, n)
		}
	}
	from := m.Graph.Reachable(roots)
	var diags []Diagnostic
	for _, n := range m.Graph.Funcs {
		root := from[n]
		if root == nil {
			continue
		}
		diags = append(diags, scanHotFunc(n, root)...)
	}
	return diags
}

// scanHotFunc flags every allocation-inducing construct in one
// hot-reachable function body. root is the hot-path root that reaches
// it, named in the message so the reader knows which path is at stake.
func scanHotFunc(n *FuncNode, root *FuncNode) []Diagnostic {
	p := n.Pkg
	var diags []Diagnostic
	report := func(pos ast.Node, what string) {
		reason, waived := p.waiver(pos.Pos(), "allocok")
		if waived && reason != "" {
			return
		}
		msg := what + " on the hot path from " + root.ID + "; hoist it, use a caller-owned buffer, or waive with //hopplint:allocok <reason>"
		if waived {
			msg = "//hopplint:allocok waiver has no reason; state why this hot-path allocation is acceptable"
		}
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(pos.Pos()),
			Analyzer: "hotalloc",
			Message:  msg,
		})
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// The closure value is the hot-path allocation; its body runs
			// wherever the closure is invoked and is not scanned here.
			report(node, "closure allocates")
			return false
		case *ast.CompositeLit:
			switch p.Info.TypeOf(node).Underlying().(type) {
			case *types.Map:
				report(node, "map literal allocates")
			case *types.Slice:
				report(node, "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if node.Op.String() == "&" {
				if _, ok := unparen(node.X).(*ast.CompositeLit); ok {
					report(node, "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if isNonConstStringConcat(p, node) {
				report(node, "string concatenation allocates")
			}
		case *ast.CallExpr:
			return scanHotCall(p, node, report)
		}
		return true
	})
	return diags
}

// scanHotCall handles one call expression: allocating builtins,
// allocating external callees, and interface boxing of arguments. The
// return value tells ast.Inspect whether to descend into the call
// (panic arguments are skipped wholesale).
func scanHotCall(p *Package, call *ast.CallExpr, report func(ast.Node, string)) bool {
	if name, ok := builtinName(p, call); ok {
		switch name {
		case "panic":
			return false // error paths may allocate freely
		case "make":
			report(call, "make allocates")
		case "new":
			report(call, "new allocates")
		case "append":
			report(call, "append may grow its backing array")
		}
		return true
	}
	obj := staticCallee(p, call)
	if obj != nil {
		if ext := externalFacts(obj.FullName()); ext.allocates {
			// The callee is the allocation; boxing its arguments is the
			// same finding, not a second one.
			report(call, "call to "+obj.FullName()+" allocates")
			return true
		}
	}
	// Interface boxing at the call site: a concrete argument passed to
	// an interface parameter is wrapped in a heap-allocated interface
	// value (small-value optimizations aside, the hot path must not
	// gamble on them).
	sig := callSignature(p, call)
	if sig == nil {
		return true
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		tv, ok := p.Info.Types[arg]
		if !ok || tv.IsNil() || tv.Type == nil || types.IsInterface(tv.Type) {
			continue
		}
		report(arg, "argument boxed into interface parameter")
	}
	return true
}

// callSignature returns the signature the call invokes, or nil for
// conversions and builtins.
func callSignature(p *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := p.Info.Types[unparen(call.Fun)]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramTypeAt returns the parameter type argument i is assigned to,
// handling variadic tails. A `f(xs...)` spread passes the slice through
// unboxed, so the variadic element type does not apply there.
func paramTypeAt(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	np := sig.Params().Len()
	if sig.Variadic() && i >= np-1 {
		if call.Ellipsis.IsValid() {
			return nil
		}
		slice, ok := sig.Params().At(np - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return slice.Elem()
	}
	if i >= np {
		return nil
	}
	return sig.Params().At(i).Type()
}
