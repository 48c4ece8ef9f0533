package cachesim

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 64 B lines = 512 B.
	return New(Config{Name: "T", SizeBytes: 512, Ways: 2})
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("second access missed")
	}
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64) {
		t.Fatal("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets, 2 ways
	// Set index = lineIdx % 4, so lines 0, 4, 8 all land in set 0.
	l0 := memsim.PAddr(0 * 64)
	l4 := memsim.PAddr(4 * 64)
	l8 := memsim.PAddr(8 * 64)
	c.Access(l0)
	c.Access(l4)
	c.Access(l0) // make l4 the LRU
	c.Access(l8) // evicts l4
	if !c.Access(l0) {
		t.Fatal("l0 should still be cached")
	}
	if c.Access(l4) {
		t.Fatal("l4 should have been evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestInvalidatePage(t *testing.T) {
	c := New(Config{Name: "T", SizeBytes: 64 << 10, Ways: 16})
	p := memsim.PPN(3)
	for i := 0; i < memsim.LinesPerPage; i++ {
		c.Access(p.LineAddr(i))
	}
	dropped := c.InvalidatePage(p)
	if dropped != memsim.LinesPerPage {
		t.Fatalf("dropped %d lines, want %d", dropped, memsim.LinesPerPage)
	}
	if c.Access(p.LineAddr(0)) {
		t.Fatal("line survived invalidation")
	}
	if n := c.InvalidatePage(memsim.PPN(99)); n != 0 {
		t.Fatalf("invalidating absent page dropped %d lines", n)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 100, Ways: 3},       // not whole sets
		{SizeBytes: 17 << 10, Ways: 17}, // wider than a packed permutation
		{SizeBytes: 96 << 10, Ways: 8},  // 192 sets, not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// The hierarchy is non-inclusive: an LLC eviction leaves L2 alone.
// With a 2-way 64-set L2 over a 1-way 64-set LLC, page 0's and page
// 1's line 0 share set 0 at both levels; the second evicts the first
// from the LLC, and the first still hits in L2.
func TestHierarchyIsNonInclusive(t *testing.T) {
	h := NewHierarchy(
		New(Config{Name: "L2", SizeBytes: 2 * 64 * memsim.LineSize, Ways: 2}),
		New(Config{Name: "LLC", SizeBytes: 64 * memsim.LineSize, Ways: 1}),
	)
	a, b := memsim.PPN(0).LineAddr(0), memsim.PPN(1).LineAddr(0)
	for _, addr := range []memsim.PAddr{a, b} {
		if got := h.Access(addr); got != LevelMemory {
			t.Fatalf("cold access to %#x hit in %s", addr, got)
		}
	}
	if h.LLC.Page(0).Resident()&1 != 0 {
		t.Fatal("LLC kept page 0's line 0 after page 1's line 0 took its only way")
	}
	if got := h.Access(a); got != LevelL2 {
		t.Fatalf("page 0's line 0 evicted from the LLC answered from %s, want L2", got)
	}
}

// A one-set cache's tag is the whole line index, so page 2^26-1's line
// 62 is the highest line with a 32-bit tag; its line 63 (tag
// invalidTag) and every line above must panic on every path into
// AccessAt, not alias another line. AccessLines checks the same range.
func TestTagRangePanics(t *testing.T) {
	const top = memsim.PPN(1<<26 - 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", name)
			} else if msg, _ := r.(string); !strings.Contains(msg, "32-bit tag range") {
				t.Errorf("%s panicked with %v, want the tag range check", name, r)
			}
		}()
		f()
	}
	c := New(Config{Name: "T", SizeBytes: memsim.LineSize, Ways: 1})
	if c.Access(top.LineAddr(62)) {
		t.Fatal("cold access hit")
	}
	mustPanic("Access(line 2^32-1)", func() { c.Access(top.LineAddr(63)) })
	mustPanic("AccessAt(line 2^32-1)", func() { c.AccessAt(c.Page(top), top.LineAddr(63)) })
	mustPanic("Access(line 2^32)", func() { c.Access((top + 1).LineAddr(0)) })
	mustPanic("AccessAt(line 2^32)", func() { c.AccessAt(c.Page(top+1), (top + 1).LineAddr(0)) })

	// A 64-set level's tag is the page number, so AccessLines takes page
	// 2^32-2 and refuses page 2^32-1, whose tag is invalidTag.
	v := New(Config{Name: "V", SizeBytes: memsim.LinesPerPage * memsim.LineSize, Ways: 1})
	const vtop = memsim.PPN(1<<32 - 2)
	if missed := v.AccessLines(v.Page(vtop), vtop, 1); missed != 1 {
		t.Fatalf("cold AccessLines missed %#x, want 0x1", missed)
	}
	mustPanic("AccessLines(page 2^32-1)", func() { v.AccessLines(v.Page(vtop+1), vtop+1, 1) })
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(
		New(Config{Name: "L2", SizeBytes: 512, Ways: 2}),
		New(Config{Name: "LLC", SizeBytes: 4096, Ways: 4}),
	)
	if lvl := h.Access(0); lvl != LevelMemory {
		t.Fatalf("cold access got %v, want memory", lvl)
	}
	if lvl := h.Access(0); lvl != LevelL2 {
		t.Fatalf("warm access got %v, want L2", lvl)
	}
	// Thrash L2 set 0 (2 ways, 4 sets: lines 0,4,8,12 collide) so line 0
	// falls out of L2 but stays in the larger LLC.
	for _, l := range []uint64{4, 8, 12} {
		h.Access(memsim.PAddr(l * 64))
	}
	if lvl := h.Access(0); lvl != LevelLLC {
		t.Fatalf("got %v, want LLC after L2 eviction", lvl)
	}
}

func TestWorkingSetFitsNoSteadyStateMisses(t *testing.T) {
	// A working set smaller than the cache must stop missing after warmup.
	c := New(Config{Name: "T", SizeBytes: 64 << 10, Ways: 16})
	lines := (64 << 10) / memsim.LineSize / 2 // half capacity
	warm := func() {
		for i := 0; i < lines; i++ {
			c.Access(memsim.PAddr(uint64(i) * 64))
		}
	}
	warm()
	before := c.Stats().Misses
	warm()
	if after := c.Stats().Misses; after != before {
		t.Fatalf("steady-state misses: %d new misses on resident working set", after-before)
	}
}

func TestStreamingMissesEveryLine(t *testing.T) {
	// A working set far larger than the cache must miss ~once per line.
	c := New(Config{Name: "T", SizeBytes: 4 << 10, Ways: 4})
	n := 10000
	for i := 0; i < n; i++ {
		c.Access(memsim.PAddr(uint64(i) * 64))
	}
	if m := c.Stats().Misses; m != uint64(n) {
		t.Fatalf("streaming misses = %d, want %d", m, n)
	}
}

func TestDefaultHierarchy(t *testing.T) {
	h := DefaultHierarchy()
	if h.L2.Name() != "L2" || h.LLC.Name() != "LLC" {
		t.Fatalf("levels = %q, %q", h.L2.Name(), h.LLC.Name())
	}
}

// Property: hits+misses == accesses, and a repeat of the immediately
// preceding access always hits.
func TestAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "T", SizeBytes: 8 << 10, Ways: 8})
		for i := 0; i < 500; i++ {
			addr := memsim.PAddr(rng.Uint64() % (1 << 24))
			c.Access(addr)
			if !c.Access(addr) {
				return false // immediate re-access must hit
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "LLC", SizeBytes: 16 << 20, Ways: 16})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]memsim.PAddr, 4096)
	for i := range addrs {
		addrs[i] = memsim.PAddr(rng.Uint64() % (1 << 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}

var benchSink int

// benchVisit is one page visit of the hierarchy benchmarks: n lines of
// page from line first, wrapping at the page end.
type benchVisit struct {
	page     memsim.PPN
	first, n int
}

// mask returns the visit's lines as a line mask.
func (v benchVisit) mask() uint64 {
	m := uint64(1)<<v.n - 1 // v.n = 64 shifts out to all ones
	return m<<v.first | m>>(memsim.LinesPerPage-v.first)
}

// benchHierarchy returns the simulator's full-scale geometry (256 KB
// 8-way L2, 2 MB 16-way LLC) and the visits both hierarchy benchmarks
// play: one pass streams 4096 pages (8× the LLC) line by line, the
// eviction-bound regime that dominates simulation, then re-touches 4096
// runs of 1–64 lines at random pages of a 1 MB set that fits the LLC
// but not L2. lines is the pass's line count.
func benchHierarchy() (h Hierarchy, visits []benchVisit, lines int) {
	const streamPages, hotPages, retouches = 4096, 256, 4096
	h = NewHierarchy(
		New(Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8}),
		New(Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16}),
	)
	visits = make([]benchVisit, 0, streamPages+retouches)
	for p := 0; p < streamPages; p++ {
		visits = append(visits, benchVisit{memsim.PPN(p), 0, memsim.LinesPerPage})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < retouches; i++ {
		visits = append(visits, benchVisit{memsim.PPN(streamPages + rng.Intn(hotPages)), rng.Intn(memsim.LinesPerPage), 1 + rng.Intn(memsim.LinesPerPage)})
	}
	for _, v := range visits {
		lines += v.n
	}
	return h, visits, lines
}

// BenchmarkHierarchyStream plays benchHierarchy's visits as the
// per-access path does: each visit looks its page's records up once
// with Page and plays its lines through AccessAt at L2 and, on a miss,
// at the LLC. It reports host time per simulated line.
func BenchmarkHierarchyStream(b *testing.B) {
	h, visits, lines := benchHierarchy()
	pass := func() (mem int) {
		for _, v := range visits {
			l2, llc := h.L2.Page(v.page), h.LLC.Page(v.page)
			for i := 0; i < v.n; i++ {
				pa := v.page.LineAddr((v.first + i) % memsim.LinesPerPage)
				if !h.L2.AccessAt(l2, pa) && !h.LLC.AccessAt(llc, pa) {
					mem++
				}
			}
		}
		return mem
	}
	pass() // allocate every page record and fill both levels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}

// BenchmarkHierarchyVisit plays the same visits as the machine's visit
// batch does: each visit's lines go to L2 as one mask through
// AccessLines, and the lines L2 missed to the LLC as another. It
// reports host time per simulated line, comparable with
// BenchmarkHierarchyStream's.
func BenchmarkHierarchyVisit(b *testing.B) {
	h, visits, lines := benchHierarchy()
	masks := make([]uint64, len(visits))
	for i, v := range visits {
		masks[i] = v.mask()
	}
	pass := func() (mem int) {
		for i, v := range visits {
			missed := h.LLC.AccessLines(h.LLC.Page(v.page), v.page, h.L2.AccessLines(h.L2.Page(v.page), v.page, masks[i]))
			mem += bits.OnesCount64(missed)
		}
		return mem
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
}
