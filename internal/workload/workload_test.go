package workload

import (
	"sync"
	"testing"

	"hopp/internal/memsim"
)

// drain runs a generator to completion, returning the page-level trace.
func drain(t *testing.T, g Generator, seed int64) []memsim.VPN {
	t.Helper()
	g.Reset(seed)
	var pages []memsim.VPN
	var last memsim.VPN = ^memsim.VPN(0)
	for i := 0; ; i++ {
		a, ok := g.Next()
		if !ok {
			break
		}
		if p := a.Addr.Page(); p != last {
			pages = append(pages, p)
			last = p
		}
		if i > 50_000_000 {
			t.Fatal("generator did not terminate")
		}
	}
	return pages
}

// inRegions verifies every page belongs to a declared region.
func inRegions(t *testing.T, g Generator, pages []memsim.VPN) {
	t.Helper()
	for _, p := range pages {
		found := false
		for _, r := range g.Regions() {
			if r.Contains(p) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s touched page %d outside every region", g.Name(), p)
		}
	}
}

func TestSequentialShape(t *testing.T) {
	g := NewSequential(100, 2)
	pages := drain(t, g, 1)
	if len(pages) != 200 {
		t.Fatalf("page visits = %d, want 200 (two passes)", len(pages))
	}
	for i := 1; i < 100; i++ {
		if pages[i] != pages[i-1]+1 {
			t.Fatalf("non-sequential at %d: %d -> %d", i, pages[i-1], pages[i])
		}
	}
	inRegions(t, g, pages)
}

func TestSequentialAccessCount(t *testing.T) {
	g := NewSequential(10, 1)
	g.Reset(0)
	n := 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Write {
			t.Fatal("sequential scan should be reads")
		}
		if a.Think <= 0 {
			t.Fatal("think time missing")
		}
		n++
	}
	if n != 10*memsim.LinesPerPage {
		t.Fatalf("accesses = %d, want %d", n, 10*64)
	}
}

func TestNextBeforeResetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewSequential(10, 1)
	g.Next()
}

func TestStridedShape(t *testing.T) {
	g := NewStrided(100, 5, 1)
	pages := drain(t, g, 1)
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1]+5 {
			t.Fatalf("stride broken at %d", i)
		}
	}
}

func TestIntertwinedHasTwoStrides(t *testing.T) {
	g := NewIntertwined(50, 0)
	pages := drain(t, g, 1)
	// Round-robin A,B,A,B: consecutive same-stream pages are 2 apart in
	// the trace. Verify both strides present.
	var sawA, sawB bool
	for i := 2; i < len(pages); i++ {
		switch pages[i] - pages[i-2] {
		case 2:
			sawA = true
		case 1:
			sawB = true
		}
	}
	if !sawA || !sawB {
		t.Fatalf("streams missing: strideA=%v strideB=%v", sawA, sawB)
	}
	inRegions(t, g, pages)
}

func TestIntertwinedInterference(t *testing.T) {
	g := NewIntertwined(200, 0.2)
	pages := drain(t, g, 7)
	noise := 0
	for _, p := range pages {
		if p >= 0x200000 {
			noise++
		}
	}
	if noise == 0 {
		t.Fatal("no interference pages generated")
	}
	inRegions(t, g, pages)
}

func TestLadderShape(t *testing.T) {
	g := NewLadder(20, 1)
	pages := drain(t, g, 1)
	if len(pages) != 60 {
		t.Fatalf("visits = %d, want 60", len(pages))
	}
	// Same tread position one period (3 visits) later advances by 1.
	for i := 3; i < len(pages); i++ {
		if pages[i] != pages[i-3]+1 {
			t.Fatalf("ladder period broken at %d", i)
		}
	}
}

func TestRippleStaysNearStream(t *testing.T) {
	g := NewRipple(500, 1)
	pages := drain(t, g, 3)
	// The sweep must cover every page in [start, start+500) despite the
	// out-of-order hops.
	seen := make(map[memsim.VPN]bool)
	for _, p := range pages {
		seen[p] = true
	}
	start := g.Regions()[0].Start
	for i := 0; i < 500; i++ {
		if !seen[start+memsim.VPN(i)] {
			t.Fatalf("ripple sweep skipped page %d", i)
		}
	}
	inRegions(t, g, pages)
}

func TestAddUpInterleavesWorkers(t *testing.T) {
	g := NewAddUp(2, 100)
	pages := drain(t, g, 1)
	if len(pages) != 400 {
		t.Fatalf("visits = %d, want 400 (fill pass + read pass)", len(pages))
	}
	// Alternating regions in both passes.
	r := g.Regions()
	for i := 0; i+1 < len(pages); i += 2 {
		if !r[0].Contains(pages[i]) || !r[1].Contains(pages[i+1]) {
			t.Fatalf("workers not interleaved at %d", i)
		}
	}
	if g.FootprintPages() != 200 {
		t.Fatalf("footprint = %d", g.FootprintPages())
	}
}

func TestDeterministicReset(t *testing.T) {
	for _, g := range []Generator{
		NewNPBMG(300, 1),
		NewSparkBayes(1024),
		NewGraphX("BFS", 512),
		NewNPBCG(200, 1),
	} {
		a := drain(t, g, 42)
		b := drain(t, g, 42)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length", g.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: trace diverged at %d", g.Name(), i)
			}
		}
		c := drain(t, g, 43)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical traces", g.Name())
		}
	}
}

func TestAllAppsStayInRegionsAndTerminate(t *testing.T) {
	apps := []Generator{
		NewOMPKMeans(512, 2),
		NewQuicksort(512),
		NewHPL(16, 96),
		NewNPBCG(512, 2),
		NewNPBFT(512),
		NewNPBLU(8, 64, 2),
		NewNPBMG(512, 2),
		NewNPBIS(512),
		NewGraphX("BFS", 256),
		NewGraphX("CC", 256),
		NewGraphX("PR", 256),
		NewGraphX("LP", 256),
		NewSparkKMeans(1024),
		NewSparkBayes(1024),
	}
	seen := make(map[string]bool)
	for _, g := range apps {
		if seen[g.Name()] {
			t.Fatalf("duplicate workload name %q", g.Name())
		}
		seen[g.Name()] = true
		pages := drain(t, g, 11)
		if len(pages) == 0 {
			t.Fatalf("%s produced no accesses", g.Name())
		}
		inRegions(t, g, pages)
	}
}

func TestUnknownGraphXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraphX("DIJKSTRA", 100)
}

func TestQuicksortHierarchy(t *testing.T) {
	g := NewQuicksort(256)
	pages := drain(t, g, 1)
	// First pass (write fill) + full partition + two half partitions...
	// total visits = 256 * (1 + levels) where levels = log2(256/32)+1 = 4.
	want := 256 * (1 + 4)
	if len(pages) != want {
		t.Fatalf("visits = %d, want %d", len(pages), want)
	}
}

func TestSparkShortRuns(t *testing.T) {
	g := NewSparkBayes(2048)
	pages := drain(t, g, 3)
	// Count maximal sequential run lengths; Spark-Bayes must be run-y
	// but short (runLen 24), i.e. no run longer than ~runLen pages.
	run, maxRun := 1, 1
	for i := 1; i < len(pages); i++ {
		if pages[i] == pages[i-1]+1 {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 1
		}
	}
	if maxRun > 48 {
		t.Fatalf("Spark-Bayes has a %d-page sequential run; JVM staging should keep runs short", maxRun)
	}
}

func TestRandomFloor(t *testing.T) {
	g := NewRandom(1000, 5000)
	pages := drain(t, g, 9)
	inRegions(t, g, pages)
	if len(pages) < 4000 {
		t.Fatalf("random touches collapsed: %d", len(pages))
	}
}

// FootprintPages must be safe on a Generator shared across goroutines:
// the first read counts the seed-0 program under a sync.Once, so
// concurrent first readers (run under `go test -race ./internal/workload`,
// part of make check) all see the one count.
func TestFootprintPagesConcurrentReaders(t *testing.T) {
	g := NewSequential(256, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.FootprintPages(); got != 256 {
				t.Errorf("concurrent FootprintPages = %d, want 256", got)
			}
		}()
	}
	wg.Wait()
}

// FootprintPages must also stay clean under `go test -race` with its
// first readers hitting a generator while another goroutine Resets and
// drives it: the count must not share the runner's cursor or program.
func TestFootprintPagesConcurrentWithRunner(t *testing.T) {
	g := NewRipple(256, 2) // rng-built program: Reset writes b.visits
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a runner priming and draining the generator
		defer wg.Done()
		g.Reset(7)
		for {
			if _, ok := g.Next(); !ok {
				return
			}
		}
	}()
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.FootprintPages()
		}()
	}
	wg.Wait()
	// The canonical count is the distinct pages a seed-0 run touches.
	distinct := map[memsim.VPN]bool{}
	for _, p := range drain(t, g, 0) {
		distinct[p] = true
	}
	for i, n := range got {
		if n != len(distinct) || n <= 0 {
			t.Fatalf("reader %d: FootprintPages = %d, seed-0 run touched %d pages", i, n, len(distinct))
		}
	}
}

// Ripple's random hops change how many visits a pass makes, so its
// seeds play different access totals.
func TestRippleAccessCountDependsOnSeed(t *testing.T) {
	g := NewRipple(256, 2)
	for _, c := range []struct {
		seed int64
		want int
	}{{0, 34304}, {1, 33760}, {3, 33824}} {
		g.Reset(c.seed)
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		if n != c.want {
			t.Errorf("seed %d played %d accesses, want %d", c.seed, n, c.want)
		}
	}
}

// Playing part of each visit through Rest and Skip yields the same
// stream as Next alone: the lines Rest reports are the next accesses,
// on the last access's page with its write flag and Think's think time.
func TestRestSkipMatchesNext(t *testing.T) {
	for _, mk := range []func() *Base{
		func() *Base { return NewSequential(64, 2) },
		func() *Base { return NewRipple(256, 2) },
		func() *Base { return NewNPBMG(256, 2) },
		func() *Base { return NewGraphX("PR", 128) },
		func() *Base { return NewRandom(64, 512) },
	} {
		ref, b := mk(), mk()
		ref.Reset(3)
		b.Reset(3)
		for step := 0; ; step++ {
			last, ok := b.Next()
			want, wantOK := ref.Next()
			if last != want || ok != wantOK {
				t.Fatalf("%s: Next %+v (%v), want %+v (%v)", b.Name(), last, ok, want, wantOK)
			}
			if !ok {
				break
			}
			line, n := b.Rest()
			// Take all of the rest, some of it or none, in turn.
			take := [3]int{n, n / 2, 0}[step%3]
			for i := 0; i < take; i++ {
				addr := memsim.VAddr(uint64(last.Addr.Page())<<memsim.PageShift |
					uint64((line+i)&(memsim.LinesPerPage-1))<<memsim.LineShift)
				got := Access{Addr: addr, Write: last.Write, Think: b.Think()}
				if want, _ := ref.Next(); got != want {
					t.Fatalf("%s: rest line %d is %+v, want %+v", b.Name(), i, got, want)
				}
			}
			if take > 0 {
				b.Skip(take)
			}
		}
	}
}
