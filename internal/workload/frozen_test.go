package workload

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// collect drains a generator into its full access stream.
func collect(t *testing.T, g Generator, seed int64) []Access {
	t.Helper()
	g.Reset(seed)
	var out []Access
	for {
		a, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// A frozen Base replays access-for-access identically to a fresh
// generator Reset with the same seed — the invariant that keeps sweep
// children byte-identical (and cache-compatible) with standalone runs.
func TestFrozenBaseReplayMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *Base
		seed int64
	}{
		{"sequential", func() *Base { return NewSequential(64, 3) }, 1},
		{"random", func() *Base { return NewRandom(48, 600) }, 7},
		{"npb-mg", func() *Base { return NewNPBMG(40, 2) }, 42},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := collect(t, c.gen(), c.seed)
			frozen := Freeze(c.gen(), c.seed)
			got := collect(t, frozen.Replay(), c.seed)
			if len(got) != len(want) {
				t.Fatalf("replay length %d, fresh length %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d: replay %+v, fresh %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// The frozen form must preserve the template's canonical footprint and
// totals: the machine sizes its memory limit from FootprintPages, so a
// drifting value would silently simulate a different configuration.
func TestFrozenPreservesCanonicalFootprint(t *testing.T) {
	base := NewRandom(48, 600)
	frozen := Freeze(NewRandom(48, 600), 9).Replay()
	if got, want := frozen.FootprintPages(), base.FootprintPages(); got != want {
		t.Fatalf("FootprintPages = %d, want canonical %d", got, want)
	}
}

// Replayers are bound to their freeze seed: any other seed would
// silently serve the wrong stream under the requested seed's cache key.
func TestFrozenRejectsWrongSeed(t *testing.T) {
	frozen := Freeze(NewSequential(16, 1), 3)
	rep := frozen.Replay()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with the wrong seed did not panic")
		}
	}()
	rep.Reset(4)
}

// A replayer is bound to its freeze seed, so freezing it under another
// seed fails on the seed binding instead of building that seed's
// program.
func TestFreezeOfReplayerAtOtherSeedPanics(t *testing.T) {
	rep := Freeze(NewRandom(32, 400), 3).Replay()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "frozen at seed 3, Reset with seed 4") {
			t.Fatalf("panic %q, want the seed-binding message", msg)
		}
	}()
	Freeze(rep, 4)
}

func TestFrozenNextBeforeResetPanics(t *testing.T) {
	rep := Freeze(NewSequential(16, 1), 1).Replay()
	defer func() {
		if recover() == nil {
			t.Fatal("Next before Reset did not panic")
		}
	}()
	rep.Next()
}

// Many replayers over one Frozen run concurrently without sharing any
// cursor state — the read-only contract sweep workers rely on.
func TestFrozenConcurrentReplayers(t *testing.T) {
	frozen := Freeze(NewRandom(32, 400), 11)
	want := collect(t, frozen.Replay(), 11)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := frozen.Replay()
			rep.Reset(11)
			for i := 0; ; i++ {
				a, ok := rep.Next()
				if !ok {
					if i != len(want) {
						errs <- "short stream"
					}
					return
				}
				if a != want[i] {
					errs <- "diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// Freezing a replayer at its own seed hands back the shared stream, so
// a caller that freezes whatever generator it is given never copies a
// stream its own caller already froze.
func TestFreezeOfReplayerReusesStream(t *testing.T) {
	frozen := Freeze(NewSequential(16, 1), 3)
	if got := Freeze(frozen.Replay(), 3); got != frozen {
		t.Fatalf("%s: Freeze of a replayer at its seed built a new stream", frozen.Name())
	}
}

// countingBase is a Sequential-shaped generator whose build closure
// counts its calls.
func countingBase(builds *atomic.Int32) *Base {
	r := Region{Name: "array", Start: 0x10000, Pages: 32}
	return NewBase("Counting", []Region{r}, defaultThink, 2, func(*rand.Rand) []visit {
		builds.Add(1)
		return seqVisits(r.Start, r.Pages, false)
	})
}

// A page program is built only where it is needed, once: construction
// builds nothing, Reset builds its seed's program, Freeze at that seed
// reuses it, the seed-0 footprint is built once however many players
// of the workload race to read it, and a replayer Reset at another seed
// panics without building.
func TestBuildCounts(t *testing.T) {
	var builds atomic.Int32
	b := countingBase(&builds)
	if n := builds.Load(); n != 0 {
		t.Fatalf("NewBase built %d programs, want 0", n)
	}
	b.Reset(5)
	if n := builds.Load(); n != 1 {
		t.Fatalf("Reset built %d programs, want 1", n)
	}
	frozen := Freeze(b, 5)
	if n := builds.Load(); n != 1 {
		t.Fatalf("Freeze after Reset at its seed built %d programs in all, want 1", n)
	}
	rep := frozen.Replay()
	rep.Reset(5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(g *Base) {
			defer wg.Done()
			if got := g.FootprintPages(); got != 32 {
				t.Errorf("FootprintPages = %d, want 32", got)
			}
		}([]*Base{b, rep}[i%2])
	}
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Fatalf("after concurrent FootprintPages reads: %d programs built, want 2", n)
	}
	// A player minted from the generator shares its seed-0 count.
	if got := b.Player().FootprintPages(); got != 32 || builds.Load() != 2 {
		t.Fatalf("a player's FootprintPages = %d after %d programs built in all, want 32 after 2", got, builds.Load())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replayer Reset at another seed did not panic")
		}
		if n := builds.Load(); n != 2 {
			t.Fatalf("replayer Reset at another seed built a program (%d in all)", n)
		}
	}()
	rep.Reset(6)
}

// A Base fills the 128-byte size class, so two players never share a
// cache line. At 72 bytes, unpadded, Table II's five workloads, allocated
// side by side and traced on two threads, ran about a third slower.
func TestBaseFillsTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Base{}); size != 128 {
		t.Fatalf("Base is %d bytes, want 128", size)
	}
}
