package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Per-function summaries. Each FuncNode gets a small fact vector —
// allocates, writes ordered output, may block, reads the wall clock,
// and the set of locks it may acquire — computed locally from its body
// plus a table of known standard-library behaviors, then propagated to
// transitive callers over the call graph to a fixed point. The
// interprocedural analyzers consult the propagated facts: maporder sees
// a fmt.Fprintf three helpers deep, lockheld sees a journal write
// behind a method chain, nodeterm sees a wall-clock read hidden in a
// non-deterministic module package.

// funcFacts is the internal summary representation.
type funcFacts struct {
	allocates     bool
	writesOrdered bool
	blocks        bool
	readsClock    bool
	acquires      []string // sorted, unique lock IDs
}

// mergeFrom folds a callee's facts into the caller's, reporting whether
// anything changed (the fixed-point driver's termination condition).
func (f *funcFacts) mergeFrom(callee funcFacts) bool {
	changed := false
	if callee.allocates && !f.allocates {
		f.allocates, changed = true, true
	}
	if callee.writesOrdered && !f.writesOrdered {
		f.writesOrdered, changed = true, true
	}
	if callee.blocks && !f.blocks {
		f.blocks, changed = true, true
	}
	if callee.readsClock && !f.readsClock {
		f.readsClock, changed = true, true
	}
	for _, id := range callee.acquires {
		i := sort.SearchStrings(f.acquires, id)
		if i < len(f.acquires) && f.acquires[i] == id {
			continue
		}
		f.acquires = append(f.acquires, "")
		copy(f.acquires[i+1:], f.acquires[i:])
		f.acquires[i] = id
		changed = true
	}
	return changed
}

func (f *funcFacts) addAcquire(id string) {
	i := sort.SearchStrings(f.acquires, id)
	if i < len(f.acquires) && f.acquires[i] == id {
		return
	}
	f.acquires = append(f.acquires, "")
	copy(f.acquires[i+1:], f.acquires[i:])
	f.acquires[i] = id
}

// computeSummaries fills every node's facts: one local pass per
// function, then an iterate-to-fixed-point propagation over the static
// call edges. Local passes and propagation are deterministic (nodes in
// sorted order), so derived diagnostics are too.
func computeSummaries(g *CallGraph) {
	for _, n := range g.Funcs {
		n.facts = localFacts(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Funcs {
			for _, cs := range n.Calls {
				if cs.Callee == nil {
					continue
				}
				if n.facts.mergeFrom(cs.Callee.facts) {
					changed = true
				}
			}
		}
	}
}

// localFacts scans one function body for the constructs the summaries
// track. A blocking operation carrying a //hopplint:lockok waiver is
// excluded from the blocks fact — the waiver at the source site is what
// keeps every transitive caller clean with a single audited comment.
func localFacts(n *FuncNode) funcFacts {
	p := n.Pkg
	var f funcFacts
	own := paramObjects(p, n.Decl)
	// Comm operations of a select that has a default case never block —
	// the default makes the whole statement a poll. Collected up front
	// (the SelectStmt is visited before its clauses) so the SendStmt and
	// UnaryExpr cases below can tell a bare `ch <- v` from the same
	// syntax inside `select { case ch <- v: ... default: }`.
	nonBlockingComm := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			// The spawned goroutine does not run on this call path; its
			// literal body is scanned as part of the enclosing node by
			// the other cases, which is conservative enough.
			return true
		case *ast.SendStmt:
			if !nonBlockingComm[node] {
				if _, ok := p.waiver(node.Pos(), "lockok"); !ok {
					f.blocks = true
				}
			}
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" && !nonBlockingComm[node] {
				if _, ok := p.waiver(node.Pos(), "lockok"); !ok {
					f.blocks = true
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				if _, ok := p.waiver(node.Pos(), "lockok"); !ok {
					f.blocks = true
				}
			} else {
				for _, clause := range node.Body.List {
					cc, ok := clause.(*ast.CommClause)
					if !ok || cc.Comm == nil {
						continue
					}
					nonBlockingComm[cc.Comm] = true
					switch comm := cc.Comm.(type) {
					case *ast.ExprStmt:
						nonBlockingComm[comm.X] = true
					case *ast.AssignStmt:
						for _, rhs := range comm.Rhs {
							nonBlockingComm[rhs] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(node.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					f.blocks = true
				}
			}
		case *ast.FuncLit:
			// The closure value allocates; its body runs in a context
			// this path does not control (see collectCalls) and is not
			// scanned.
			f.allocates = true
			return false
		case *ast.CompositeLit:
			switch p.Info.TypeOf(node).Underlying().(type) {
			case *types.Map, *types.Slice:
				f.allocates = true
			}
		case *ast.BinaryExpr:
			if isNonConstStringConcat(p, node) {
				f.allocates = true
			}
		case *ast.CallExpr:
			localCallFacts(p, node, own, &f)
		}
		return true
	})
	return f
}

// localCallFacts folds one call expression's contribution into f.
func localCallFacts(p *Package, call *ast.CallExpr, own map[types.Object]bool, f *funcFacts) {
	// Builtins: make and new allocate; append allocates and, when its
	// destination escapes the function, also emits in call order.
	if name, ok := builtinName(p, call); ok {
		switch name {
		case "make", "new":
			f.allocates = true
		case "append":
			f.allocates = true
			if appendEscapes(p, call, own) {
				f.writesOrdered = true
			}
		}
		return
	}
	if obj := staticCallee(p, call); obj != nil {
		if id, isLock := mutexAcquisition(p, call, obj); isLock {
			f.addAcquire(id)
			return
		}
		ext := externalFacts(obj.FullName())
		if ext.blocks {
			if _, ok := p.waiver(call.Pos(), "lockok"); ok {
				ext.blocks = false
			}
		}
		f.allocates = f.allocates || ext.allocates
		f.writesOrdered = f.writesOrdered || ext.writesOrdered
		f.blocks = f.blocks || ext.blocks
		f.readsClock = f.readsClock || ext.readsClock
	}
	// Writer-shaped method calls on receivers that actually satisfy
	// io.Writer emit bytes in call order (and may block on the
	// underlying sink). This catches concrete writers — *bytes.Buffer,
	// *strings.Builder, files — that the name table cannot enumerate.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if writerMethods[sel.Sel.Name] && p.Info.Selections[sel] != nil {
			if implementsWriter(p.Info.Selections[sel].Recv()) {
				f.writesOrdered = true
			}
		}
	}
}

// builtinName reports the builtin a call invokes, if any.
func builtinName(p *Package, call *ast.CallExpr) (string, bool) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}

// appendEscapes reports whether an append call's destination outlives
// the enclosing function: a non-identifier target (field, index,
// dereference), a package-level variable, or a parameter/receiver/named
// result. Appends to plain locals are the collect-then-sort idiom and
// stay summary-invisible (maporder still sees them when they happen
// directly inside a map-range body).
func appendEscapes(p *Package, call *ast.CallExpr, own map[types.Object]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return true
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	if own[obj] {
		return true
	}
	return obj.Parent() == p.Types.Scope()
}

// paramObjects collects the declaration's receiver, parameter, and
// named-result objects — the names appendEscapes treats as escaping
// destinations.
func paramObjects(p *Package, decl *ast.FuncDecl) map[types.Object]bool {
	own := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					own[obj] = true
				}
			}
		}
	}
	addFields(decl.Recv)
	addFields(decl.Type.Params)
	addFields(decl.Type.Results)
	return own
}

// selectHasDefault reports whether a select statement has a default
// case (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isNonConstStringConcat reports a runtime string concatenation, which
// allocates the joined string.
func isNonConstStringConcat(p *Package, bin *ast.BinaryExpr) bool {
	if bin.Op.String() != "+" {
		return false
	}
	tv, ok := p.Info.Types[bin]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// mutexAcquisition reports whether the call is sync.Mutex.Lock /
// sync.RWMutex.Lock / RLock (directly or through an embedded mutex) and
// returns the lock's identity string.
func mutexAcquisition(p *Package, call *ast.CallExpr, obj *types.Func) (string, bool) {
	switch obj.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
	default:
		return "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return lockID(p, sel.X), true
}

// mutexRelease mirrors mutexAcquisition for Unlock/RUnlock.
func mutexRelease(p *Package, call *ast.CallExpr) (string, bool) {
	obj := staticCallee(p, call)
	if obj == nil {
		return "", false
	}
	switch obj.FullName() {
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
	default:
		return "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return lockID(p, sel.X), true
}

// lockID names a mutex by where it lives rather than which variable
// happens to hold it at the call site, so `e.reg.mu` in the engine and
// `g.mu` in a registry method are the same lock: a field selection
// becomes ownerType.field, a bare variable of a named type becomes the
// type name, anything else falls back to the variable name. IDs are
// package-qualified.
func lockID(p *Package, x ast.Expr) string {
	x = unparen(x)
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if owner := namedTypeName(p.Info.TypeOf(x.X)); owner != "" {
			return p.Name + "." + owner + "." + x.Sel.Name
		}
		return p.Name + "." + x.Sel.Name
	case *ast.Ident:
		if owner := namedTypeName(p.Info.TypeOf(x)); owner != "" && owner != "Mutex" && owner != "RWMutex" {
			return p.Name + "." + owner
		}
		return p.Name + "." + x.Name
	default:
		return p.Name + "." + types.ExprString(x)
	}
}

// namedTypeName returns the base named type's name behind any
// pointers, or "".
func namedTypeName(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// externalFacts is the knowledge table for functions outside the
// analyzed set — the standard library, mostly. Matching is on
// types.Func.FullName. The table is deliberately small and explicit:
// an unknown external is assumed fact-free (under-approximation), which
// keeps false positives near zero at the cost of missing exotic sinks.
func externalFacts(id string) funcFacts {
	var f funcFacts
	switch id {
	case "time.Now", "time.Since", "time.Until":
		f.readsClock = true
		return f
	case "time.Sleep", "(*sync.WaitGroup).Wait", "(*time.Timer).Stop", "(*time.Ticker).Stop":
		if id == "time.Sleep" || id == "(*sync.WaitGroup).Wait" {
			f.blocks = true
		}
		return f
	case "io.Copy", "io.ReadAll", "io.WriteString", "io.ReadFull":
		f.blocks = true
		f.allocates = id == "io.ReadAll"
		f.writesOrdered = id == "io.WriteString" || id == "io.Copy"
		return f
	case "errors.New":
		f.allocates = true
		return f
	}
	// fmt: Fprint*/Print* write ordered output to a sink that may block;
	// every fmt call allocates (boxing, buffers, the result string).
	if strings.HasPrefix(id, "fmt.") {
		f.allocates = true
		name := strings.TrimPrefix(id, "fmt.")
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			f.writesOrdered = true
			f.blocks = true
		}
		return f
	}
	// strconv: the formatting half allocates (Append* writes into a
	// caller-owned buffer and is the sanctioned hot-path form).
	if strings.HasPrefix(id, "strconv.") {
		name := strings.TrimPrefix(id, "strconv.")
		if strings.HasPrefix(name, "Format") || strings.HasPrefix(name, "Quote") ||
			name == "Itoa" || name == "Unquote" {
			f.allocates = true
		}
		return f
	}
	// Known-blocking I/O families: os files, the network, buffered I/O
	// flush/scan, and JSON stream codecs.
	switch {
	case strings.HasPrefix(id, "(*os.File)."),
		strings.HasPrefix(id, "net."), strings.HasPrefix(id, "(*net."),
		strings.HasPrefix(id, "(net."), strings.HasPrefix(id, "net/http."),
		strings.HasPrefix(id, "(*net/http."),
		id == "(*bufio.Writer).Flush", id == "(*bufio.Writer).Write",
		id == "(*bufio.Writer).WriteString", id == "(*bufio.Reader).Read",
		id == "(*bufio.Scanner).Scan",
		id == "(*encoding/json.Encoder).Encode", id == "(*encoding/json.Decoder).Decode",
		id == "(io.Writer).Write", id == "(io.Reader).Read", id == "(io.Closer).Close":
		f.blocks = true
	}
	switch id {
	case "os.ReadFile", "os.WriteFile", "os.Open", "os.OpenFile", "os.Create",
		"os.Remove", "os.RemoveAll", "os.Rename", "os.Stat", "os.ReadDir",
		"os.MkdirAll", "os.Mkdir":
		f.blocks = true
	}
	return f
}
