package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package: the syntax trees (with
// comments, which carry the waiver directives), the shared FileSet, and
// the go/types artifacts every analyzer consults.
type Package struct {
	Path   string // import path ("hopp/internal/sim"); fixture paths are synthetic
	Module string // path of the module the package was loaded from; its root package is the facade
	Name   string // package clause name ("sim", "main", ...)
	Dir    string
	Files  []*ast.File
	Fset   *token.FileSet
	Types  *types.Package
	Info   *types.Info

	waivers map[string]map[int]string // file name -> line -> comment text

	// directives holds every //hopplint:<known-directive> occurrence in
	// the package, and used records which of them some analyzer actually
	// consulted via waiver() — the raw material for stalewaiver.
	directives []directiveSite
	used       map[string]bool // "file:line:directive"
}

// directiveSite is one //hopplint:<directive> comment occurrence.
type directiveSite struct {
	Pos       token.Position
	Directive string
}

// waiverKey identifies a directive occurrence for use-tracking.
func waiverKey(filename string, line int, directive string) string {
	return filename + ":" + strconv.Itoa(line) + ":" + directive
}

// resetWaiverUse clears the consumed-directive marks; NewModule calls it
// so repeated Check runs over the same packages start fresh.
func (p *Package) resetWaiverUse() {
	p.used = make(map[string]bool)
}

// Loader parses and type-checks packages of one module from source,
// with no dependencies outside the standard library: intra-module
// imports are resolved against the module root, everything else through
// the compiler's source importer (GOROOT source). Packages load one at
// a time, each intra-module import on first use (LoadPackage); the
// mutexes keep a Loader safe to share between goroutines.
type Loader struct {
	fset   *token.FileSet
	root   string
	module string

	// std is the stdlib source importer. It memoizes internally but is
	// not documented concurrency-safe, so stdMu serializes access.
	std   types.Importer
	stdMu sync.Mutex

	mu      sync.Mutex // guards pkgs and loading
	pkgs    map[string]*Package
	loading map[string]bool // per-load-chain recursion marks (cycle detection)
}

// NewLoader opens the module rooted at root (the directory holding
// go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		fset:    token.NewFileSet(),
		root:    abs,
		module:  mod,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l, nil
}

// Module returns the module path of the loaded tree.
func (l *Loader) Module() string { return l.module }

// modulePath extracts the module path from a go.mod.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer, routing intra-module paths to the
// module tree — already-loaded packages from the map, others through a
// recursive LoadPackage — and everything else to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		l.mu.Lock()
		p, ok := l.pkgs[path]
		l.mu.Unlock()
		if ok {
			return p.Types, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		loaded, err := l.LoadPackage(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return loaded.Types, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// parseDir parses every non-test source of dir into the shared FileSet,
// with comments (the waiver directives live there).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck runs go/types over already-parsed files and assembles the
// Package. It does not register the result; callers own the map write.
func (l *Loader) typeCheck(dir, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:   path,
		Module: l.module,
		Name:   files[0].Name.Name,
		Dir:    dir,
		Files:  files,
		Fset:   l.fset,
		Types:  tpkg,
		Info:   info,
	}
	p.indexWaivers()
	return p, nil
}

// LoadPackage loads and type-checks the single package in dir under the
// given import path, recursing into intra-module imports as they are
// reached. Test files are skipped: hopplint audits the shipped sources;
// _test.go files are exempt by design (they may use wall clocks for
// deadlines and discard errors freely).
func (l *Loader) LoadPackage(dir, path string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, path)
		l.mu.Unlock()
	}()

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p, err := l.typeCheck(dir, path, files)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.pkgs[path] = p
	l.mu.Unlock()
	return p, nil
}

// LoadAll discovers every package under the module root (mirroring the
// go tool's ./... — testdata, vendor, hidden and underscore directories
// are skipped) and loads each one with LoadPackage in sorted directory
// order, so the returned slice and the findings order are stable.
// Intra-module imports load recursively on first use and are reused
// after; the first failure, in that order, is returned.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(path)
		if err != nil {
			return err
		}
		if len(srcs) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		p, err := l.LoadPackage(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// goSources lists the non-test .go files of dir in stable order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// indexWaivers maps every comment to its file and line so analyzers can
// look up //hopplint:... directives attached to a statement (same line
// or the line directly above).
func (p *Package) indexWaivers() {
	p.waivers = make(map[string]map[int]string)
	p.used = make(map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				byLine := p.waivers[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]string)
					p.waivers[pos.Filename] = byLine
				}
				byLine[pos.Line] += c.Text
				// Only comments that ARE a directive (prefix match) count
				// as waiver sites; prose that merely mentions one — the
				// analyzers' own documentation — does not.
				for _, d := range waiverDirectives {
					if strings.HasPrefix(c.Text, "//hopplint:"+d) {
						p.directives = append(p.directives, directiveSite{Pos: pos, Directive: d})
					}
				}
			}
		}
	}
}

// waiver returns the text of a //hopplint:<directive> comment covering
// pos — on the same line (trailing comment) or the line directly above —
// and whether one was found. The returned string is the text after the
// directive, trimmed (the waiver's reason, possibly empty).
func (p *Package) waiver(pos token.Pos, directive string) (string, bool) {
	position := p.Fset.Position(pos)
	byLine := p.waivers[position.Filename]
	if byLine == nil {
		return "", false
	}
	marker := "//hopplint:" + directive
	for _, line := range []int{position.Line, position.Line - 1} {
		text, ok := byLine[line]
		if !ok {
			continue
		}
		if i := strings.Index(text, marker); i >= 0 {
			p.used[waiverKey(position.Filename, line, directive)] = true
			rest := text[i+len(marker):]
			if j := strings.Index(rest, "//"); j >= 0 {
				rest = rest[:j]
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
