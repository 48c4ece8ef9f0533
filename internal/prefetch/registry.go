package prefetch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The registry is the single canonical table of demand-path schemes.
// Packages register at init time; the daemon catalog, cmd/hoppsim, and
// sweep grid expansion all resolve specs through it, so a scheme
// registered here is immediately reachable from POST /v1/runs, sweeps,
// and the CLIs with no per-layer edits.
//
// A spec names a scheme plus optional integer parameters, in two forms:
//
//	name                  spp, leap, noprefetch
//	name?k=v&k2=v2        spp?lookahead=6, leap?depth=16
//	name-<v>              depth-16 — shorthand binding the scheme's
//	                      designated Suffix parameter
//
// Canonical form lowercases the name, drops parameters at their
// defaults, orders the rest as declared, and renders suffix schemes as
// name-<v>; equal canonical specs build identical prefetchers, which is
// what lets the service layer use the canonical spec as a cache key.

// Param declares one integer parameter of a scheme.
type Param struct {
	// Key is the query-string key (lowercase).
	Key string
	// Default is the value used when the spec omits the parameter.
	Default int
}

// Scheme is one registered prefetcher family.
type Scheme struct {
	// Name is the canonical lowercase base name ("spp").
	Name string
	// Doc is a one-line description for catalogs and docs.
	Doc string
	// Params declares the accepted parameters in canonical render order.
	Params []Param
	// Suffix names the parameter bound by the name-<v> shorthand
	// ("depth-16"); empty for schemes without one. Suffix schemes always
	// canonicalize to the shorthand form.
	Suffix string
	// Variants lists the specs advertised in catalogs instead of the
	// bare name (e.g. depth-16/depth-32); empty means advertise the
	// canonical default spec.
	Variants []string
	// Build constructs the prefetcher. args carries every declared
	// parameter (explicit or default); regions is the machine's VMA
	// resolver and may be nil for schemes that ignore it.
	Build func(args Args, regions RegionResolver) Prefetcher
}

// Args carries a spec's resolved parameter values.
type Args struct{ kv []argKV }

type argKV struct {
	key string
	val int
}

// Int returns the value of key, or def when absent.
func (a Args) Int(key string, def int) int {
	for _, e := range a.kv {
		if e.key == key {
			return e.val
		}
	}
	return def
}

var (
	schemes     = map[string]*Scheme{}
	schemeNames []string
)

// Register adds a scheme to the registry. It is called from init
// functions and panics on conflicts or malformed declarations —
// registration bugs are build bugs, not runtime conditions.
func Register(s Scheme) {
	if s.Name == "" || s.Name != strings.ToLower(s.Name) || strings.ContainsAny(s.Name, "?&=- ") {
		panic("prefetch: invalid scheme name " + strconv.Quote(s.Name))
	}
	if s.Build == nil {
		panic("prefetch: scheme " + s.Name + " has no Build")
	}
	if _, dup := schemes[s.Name]; dup {
		panic("prefetch: duplicate scheme " + s.Name)
	}
	if s.Suffix != "" && !s.hasParam(s.Suffix) {
		panic("prefetch: scheme " + s.Name + " declares undeclared suffix param " + s.Suffix)
	}
	sc := s
	schemes[s.Name] = &sc
	schemeNames = append(schemeNames, s.Name)
	sort.Strings(schemeNames)
}

func (s *Scheme) hasParam(key string) bool {
	for _, p := range s.Params {
		if p.Key == key {
			return true
		}
	}
	return false
}

func (s *Scheme) paramDefault(key string) int {
	for _, p := range s.Params {
		if p.Key == key {
			return p.Default
		}
	}
	return 0
}

// parseSpec resolves a spec string to its scheme and explicit args.
func parseSpec(spec string) (*Scheme, Args, error) {
	full := strings.ToLower(strings.TrimSpace(spec))
	base, query, hasQuery := strings.Cut(full, "?")
	sc := schemes[base]
	var kv []argKV
	if sc == nil {
		// name-<v> shorthand for the scheme's suffix parameter.
		if i := strings.LastIndex(base, "-"); i > 0 {
			if v, err := strconv.Atoi(base[i+1:]); err == nil {
				if cand := schemes[base[:i]]; cand != nil && cand.Suffix != "" {
					sc = cand
					kv = append(kv, argKV{key: cand.Suffix, val: v})
				}
			}
		}
	}
	if sc == nil {
		return nil, Args{}, fmt.Errorf("prefetch: unknown scheme %q (have %s)", spec, strings.Join(Specs(), ", "))
	}
	if hasQuery {
		for _, part := range strings.Split(query, "&") {
			if part == "" {
				continue
			}
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, Args{}, fmt.Errorf("prefetch: malformed parameter %q in %q", part, spec)
			}
			if !sc.hasParam(k) {
				return nil, Args{}, fmt.Errorf("prefetch: scheme %s has no parameter %q", sc.Name, k)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, Args{}, fmt.Errorf("prefetch: parameter %s=%q in %q is not an integer", k, v, spec)
			}
			kv = append(kv, argKV{key: k, val: n})
		}
	}
	for i := range kv {
		for j := i + 1; j < len(kv); j++ {
			if kv[i].key == kv[j].key {
				return nil, Args{}, fmt.Errorf("prefetch: duplicate parameter %q in %q", kv[i].key, spec)
			}
		}
	}
	return sc, Args{kv: kv}, nil
}

// canonical renders the canonical spec for explicit args.
func (s *Scheme) canonical(args Args) string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.Suffix != "" {
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(args.Int(s.Suffix, s.paramDefault(s.Suffix))))
	}
	sep := byte('?')
	for _, p := range s.Params {
		if p.Key == s.Suffix {
			continue
		}
		v := args.Int(p.Key, p.Default)
		if v == p.Default {
			continue
		}
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Canonical resolves a spec to its canonical form: lowercased, default
// parameters dropped, the rest in declared order, suffix schemes as
// name-<v>. Canonical is idempotent; equal canonical specs build
// identical prefetchers.
func Canonical(spec string) (string, error) {
	sc, args, err := parseSpec(spec)
	if err != nil {
		return "", err
	}
	return sc.canonical(args), nil
}

// New builds the prefetcher a spec names. regions may be nil; only the
// VMA scheme consults it.
func New(spec string, regions RegionResolver) (Prefetcher, error) {
	sc, args, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	// Hand Build a complete parameter set so constructors never guess
	// at defaults declared here.
	full := make([]argKV, 0, len(sc.Params))
	for _, p := range sc.Params {
		full = append(full, argKV{key: p.Key, val: args.Int(p.Key, p.Default)})
	}
	return sc.Build(Args{kv: full}, regions), nil
}

// Specs returns the advertised spec list, sorted: each scheme's
// Variants when declared, otherwise its canonical default spec. Every
// entry round-trips through Canonical and New.
func Specs() []string {
	out := make([]string, 0, len(schemeNames))
	for _, name := range schemeNames {
		sc := schemes[name]
		if len(sc.Variants) > 0 {
			out = append(out, sc.Variants...)
			continue
		}
		out = append(out, sc.canonical(Args{}))
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(Scheme{
		Name: "noprefetch",
		Doc:  "demand paging only; the Fig. 17 normalization baseline",
		Build: func(Args, RegionResolver) Prefetcher {
			return None{}
		},
	})
	Register(Scheme{
		Name:   "fastswap",
		Doc:    "Fastswap's sequential readahead on swap offsets",
		Params: []Param{{Key: "window", Default: 8}},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewReadahead(a.Int("window", 8))
		},
	})
	Register(Scheme{
		Name:   "leap",
		Doc:    "majority-stride prefetching over the fault history",
		Params: []Param{{Key: "history", Default: 4}, {Key: "depth", Default: 8}},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewLeap(a.Int("history", 4), a.Int("depth", 8))
		},
	})
	Register(Scheme{
		Name:     "depth",
		Doc:      "fixed-depth prefetching with early PTE injection",
		Params:   []Param{{Key: "n", Default: 32}},
		Suffix:   "n",
		Variants: []string{"depth-16", "depth-32"},
		Build: func(a Args, _ RegionResolver) Prefetcher {
			return NewDepthN(a.Int("n", 32))
		},
	})
	Register(Scheme{
		Name:   "vma",
		Doc:    "Linux 5.4's VMA-clipped neighbourhood readahead",
		Params: []Param{{Key: "window", Default: 8}},
		Build: func(a Args, r RegionResolver) Prefetcher {
			return NewVMA(a.Int("window", 8), r)
		},
	})
}
