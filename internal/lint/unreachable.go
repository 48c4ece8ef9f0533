package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unreachable keeps production code to what production reaches: every
// function and method with a body that no production root reaches is
// a finding. Code that only tests call belongs in the package's
// _test.go files, where it costs the shipped program nothing and
// cannot keep state alive on a hot path for the tests' sake.
//
// The roots come from the loaded tree, never from a list: main and
// every init of each package main (cmd/*, examples/*, and the bench
// harness, which LoadAll loads as a package of its own), every init
// and package-level var initializer, and the facade package (the
// module's root) with all of its exported functions and methods plus
// the exported methods of every type it aliases. From the roots the
// walk follows every reference to a function or method, not only
// calls: a function stored in a map or struct literal, passed as a
// value, or taken as a method value is reached where it is named.
//
// Where the graph is blind the analysis is conservative. A call
// through an interface method reaches every method of that name; a
// method that, with its siblings, covers every method of an exported
// standard-library interface (String, Error, MarshalJSON, ServeHTTP,
// Read, Write, ...) is reached, since the standard library may call it
// through that interface; Unwrap, Is and As, which the errors package
// calls through unnamed interfaces, are reached by name. Generic
// methods resolve through their origin. A package that no loaded
// package imports, outside package main and the facade, is skipped as a
// whole: it is a test-only package, or the run is over part of the tree
// and its importers are not loaded.
//
// A deliberate test seam that tests in other packages use carries
// //hopplint:testonly <reason> on its declaration; everything only it
// reaches is excused with it, and stalewaiver reports the directive
// once production reaches the function.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc:  "report functions and methods that no production root reaches, unless waived with //hopplint:testonly <reason>",
	Run:  runUnreachable,
}

// errorsCalledByName are methods the errors package calls through
// unnamed interfaces, so no exported interface names them.
var errorsCalledByName = []string{"Unwrap", "Is", "As"}

func runUnreachable(m *Module) []Diagnostic {
	skipped := unimportedPackages(m.Pkgs)
	r := newReacher(m.Graph, skipped)
	for _, p := range m.Pkgs {
		if skipped[p] {
			// A skipped package's waivers are not judged.
			for _, site := range p.directives {
				if site.Directive == "testonly" {
					p.used[waiverKey(site.Pos.Filename, site.Pos.Line, site.Directive)] = true
				}
			}
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					r.addRefs(p, gd)
				}
			}
		}
		if p.Path == p.Module {
			r.addAliasMethods(p)
		}
	}
	for _, n := range m.Graph.Funcs {
		if isProductionRoot(n) {
			r.add(n)
		}
	}
	for _, name := range errorsCalledByName {
		r.callByName(name)
	}
	r.addStdInterfaceMethods(m.Pkgs)
	r.run()

	var diags []Diagnostic
	for _, n := range m.Graph.Funcs {
		if skipped[n.Pkg] || r.seen[n] {
			continue
		}
		reason, ok := n.Pkg.waiver(n.Decl.Pos(), "testonly")
		if !ok {
			continue
		}
		if reason == "" {
			diags = append(diags, Diagnostic{
				Pos:      n.Pkg.Fset.Position(n.Decl.Name.Pos()),
				Analyzer: "unreachable",
				Message:  "//hopplint:testonly waiver has no reason; name the tests outside the package that need " + n.ID,
			})
		}
		r.add(n)
	}
	r.run()
	for _, n := range m.Graph.Funcs {
		if skipped[n.Pkg] || r.seen[n] {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:      n.Pkg.Fset.Position(n.Decl.Name.Pos()),
			Analyzer: "unreachable",
			Message:  n.ID + " is reached by no production root; delete it or move it into the package's _test.go files (a seam other packages' tests need takes //hopplint:testonly <reason>)",
		})
	}
	return diags
}

// unimportedPackages returns the loaded packages that no loaded package
// imports, other than package main and the facade.
func unimportedPackages(pkgs []*Package) map[*Package]bool {
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	skipped := make(map[*Package]bool)
	for _, p := range pkgs {
		if p.Name != "main" && p.Path != p.Module && !imported[p.Path] {
			skipped[p] = true
		}
	}
	return skipped
}

// isProductionRoot reports whether a function runs in production by
// itself: main and init functions, and the facade's exported API.
func isProductionRoot(n *FuncNode) bool {
	name := n.Decl.Name.Name
	if n.Decl.Recv == nil && (name == "init" || name == "main" && n.Pkg.Name == "main") {
		return true
	}
	return n.Pkg.Path == n.Pkg.Module && ast.IsExported(name)
}

// reacher is the reference walk: a worklist over function nodes, with
// the interface method names reached code calls through. Nodes of
// skipped packages are never reached, so their code keeps nothing
// alive.
type reacher struct {
	g       *CallGraph
	skipped map[*Package]bool
	seen    map[*FuncNode]bool
	queue   []*FuncNode
	called  map[string]bool
	byName  map[string][]*FuncNode // concrete methods by name
}

func newReacher(g *CallGraph, skipped map[*Package]bool) *reacher {
	r := &reacher{
		g:       g,
		skipped: skipped,
		seen:    make(map[*FuncNode]bool),
		called:  make(map[string]bool),
		byName:  make(map[string][]*FuncNode),
	}
	for _, n := range g.Funcs {
		if n.Decl.Recv != nil {
			r.byName[n.Decl.Name.Name] = append(r.byName[n.Decl.Name.Name], n)
		}
	}
	return r
}

func (r *reacher) add(n *FuncNode) {
	if n != nil && !r.seen[n] && !r.skipped[n.Pkg] {
		r.seen[n] = true
		r.queue = append(r.queue, n)
	}
}

// callByName reaches every concrete method of the name, as a call
// through an interface method of that name may dispatch to any of them.
func (r *reacher) callByName(name string) {
	if r.called[name] {
		return
	}
	r.called[name] = true
	for _, n := range r.byName[name] {
		r.add(n)
	}
}

// reference reaches a referenced function or method; NodeOf resolves a
// generic instance to its origin.
func (r *reacher) reference(fn *types.Func) {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		r.callByName(fn.Name())
		return
	}
	r.add(r.g.NodeOf(fn))
}

// addRefs reaches every function named inside node.
func (r *reacher) addRefs(p *Package, node ast.Node) {
	ast.Inspect(node, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				r.reference(fn)
			}
		}
		return true
	})
}

// run drains the worklist, reaching what each reached body names.
func (r *reacher) run() {
	for len(r.queue) > 0 {
		n := r.queue[0]
		r.queue = r.queue[1:]
		r.addRefs(n.Pkg, n.Decl.Body)
	}
}

// addAliasMethods reaches the exported methods of every type the facade
// aliases: callers outside the module use them through the alias.
func (r *reacher) addAliasMethods(p *Package) {
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		t := types.Unalias(tn.Type())
		if _, ptr := t.(*types.Pointer); !ptr && !types.IsInterface(t) {
			t = types.NewPointer(t)
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
				r.reference(fn)
			}
		}
	}
}

// addStdInterfaceMethods reaches the methods of every module type that
// covers, by method name, an exported standard-library interface of a
// package the tree imports (the predeclared error included).
func (r *reacher) addStdInterfaceMethods(pkgs []*Package) {
	if len(pkgs) == 0 {
		return
	}
	module := pkgs[0].Module
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, imp := range tp.Imports() {
			visit(imp)
		}
		if tp.Path() == module || strings.HasPrefix(tp.Path(), module+"/") {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, it := range ifaces {
				if !coversByName(ms, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					sel := ms.Lookup(nil, it.Method(i).Name())
					r.reference(sel.Obj().(*types.Func))
				}
			}
		}
	}
}

// coversByName reports whether ms has a method of every name in it. An
// unexported name never matches (ms.Lookup needs its package), so an
// interface only its own package can implement is never covered.
func coversByName(ms *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if ms.Lookup(nil, it.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}
