package workload

import (
	"strings"
	"sync"
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vclock"
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

// A replay carries no build closure, so freezing it under another seed
// must fail on the seed binding, not on a nil build.
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

// tinyGen is a non-Base Generator exercising the recorded-tape fallback.
type tinyGen struct{ i, n int }

func (g *tinyGen) Name() string        { return "tiny" }
func (g *tinyGen) Regions() []Region   { return []Region{{Pages: 4}} }
func (g *tinyGen) FootprintPages() int { return 4 }
func (g *tinyGen) Reset(seed int64)    { g.i = 0 }
func (g *tinyGen) Next() (Access, bool) {
	if g.i >= g.n {
		return Access{}, false
	}
	a := Access{
		Addr:  memsim.VAddr(uint64(g.i%4) << memsim.PageShift),
		Write: g.i%2 == 1,
		Think: vclock.Duration(10),
	}
	g.i++
	return a, true
}

func TestFrozenTapeFallback(t *testing.T) {
	want := collect(t, &tinyGen{n: 9}, 5)
	frozen := Freeze(&tinyGen{n: 9}, 5)
	got := collect(t, frozen.Replay(), 5)
	if len(got) != len(want) {
		t.Fatalf("tape length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: tape %+v, want %+v", i, got[i], want[i])
		}
	}
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
	for _, frozen := range []*Frozen{
		Freeze(NewSequential(16, 1), 3),
		Freeze(&tinyGen{n: 9}, 3),
	} {
		if got := Freeze(frozen.Replay(), 3); got != frozen {
			t.Fatalf("%s: Freeze of a replayer at its seed built a new stream", frozen.Name())
		}
	}
}
