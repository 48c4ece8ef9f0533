package prefetch

import (
	"strings"
	"testing"
)

// Every advertised spec must round-trip: canonicalize idempotently,
// construct, and report a non-empty display name.
func TestSpecsRoundTrip(t *testing.T) {
	specs := Specs()
	if len(specs) == 0 {
		t.Fatal("no registered specs")
	}
	for _, spec := range specs {
		canon, err := Canonical(spec)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", spec, err)
		}
		if canon != spec {
			t.Errorf("advertised spec %q is not canonical (canonicalizes to %q)", spec, canon)
		}
		again, err := Canonical(canon)
		if err != nil || again != canon {
			t.Errorf("Canonical not idempotent on %q: %q, %v", canon, again, err)
		}
		p, err := New(spec, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if p.Name() == "" {
			t.Errorf("New(%q).Name() empty", spec)
		}
	}
}

func TestCanonicalEquivalences(t *testing.T) {
	cases := []struct{ in, want string }{
		{"spp", "spp"},
		{"SPP", "spp"},
		{" spp ", "spp"},
		{"spp?lookahead=4", "spp"}, // default dropped
		{"spp?threshold=25&lookahead=4", "spp"},
		{"spp?lookahead=6", "spp?lookahead=6"},
		{"spp?threshold=30&lookahead=6", "spp?lookahead=6&threshold=30"}, // declared order
		{"depth", "depth-32"},
		{"depth-16", "depth-16"},
		{"depth?n=16", "depth-16"},
		{"depth-32", "depth-32"},
		{"leap?history=4&depth=8", "leap"},
		{"leap?depth=16", "leap?depth=16"},
		{"chimera?degree=8&explore=16", "chimera"},
		{"hhp?degree=32", "hhp?degree=32"},
		{"noprefetch", "noprefetch"},
		{"vma?window=8", "vma"},
	}
	for _, tc := range cases {
		got, err := Canonical(tc.in)
		if err != nil {
			t.Errorf("Canonical(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Canonical(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"nosuch",
		"depth-",
		"depth-x",
		"spp?bogus=1",
		"spp?lookahead=abc",
		"spp?lookahead",
		"depth-16?n=32", // suffix and query bind the same key
		"spp?lookahead=4&lookahead=6",
		"fastswap-8", // no suffix param declared
	} {
		if _, err := Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) succeeded, want error", bad)
		}
		if _, err := New(bad, nil); err == nil {
			t.Errorf("New(%q) succeeded, want error", bad)
		}
	}
	if _, err := Canonical("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown-scheme error should name the problem, got %v", err)
	}
}

// Parameterized construction must reach the constructors: depth-16
// reports Depth-16, and a widened fastswap window issues that many
// pages.
func TestParamsReachConstructors(t *testing.T) {
	d, err := New("depth-16", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "Depth-16" {
		t.Errorf("depth-16 name = %q", d.Name())
	}
	d2, err := New("depth?n=48", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name() != "Depth-48" {
		t.Errorf("depth?n=48 name = %q, want Depth-48", d2.Name())
	}
	f, err := New("fastswap?window=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.OnFault(0, k(1, 100))); got != 3 {
		t.Errorf("fastswap?window=3 issued %d pages, want 3", got)
	}
}

// Every registered scheme has docs, and the names are kept sorted.
func TestSchemesListing(t *testing.T) {
	if len(schemeNames) == 0 {
		t.Fatal("no schemes")
	}
	for i, name := range schemeNames {
		if sc := schemes[name]; sc.Doc == "" {
			t.Errorf("scheme %s has no doc", sc.Name)
		}
		if i > 0 && schemeNames[i-1] >= name {
			t.Errorf("schemes unsorted: %s before %s", schemeNames[i-1], name)
		}
	}
}
