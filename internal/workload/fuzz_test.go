package workload

import (
	"testing"

	"hopp/internal/memsim"
)

// fuzzCtors builds every constructor's workload from one small page
// count n (16–271) and a small repeat count k (1–4), the loops or
// iterations where the constructor takes one.
var fuzzCtors = []func(n, k int) *Base{
	func(n, k int) *Base { return NewSequential(n, k) },
	func(n, k int) *Base { return NewStrided(n, int64(k+1), k) },
	func(n, k int) *Base { return NewIntertwined(n, 0.05*float64(k)) },
	func(n, k int) *Base { return NewLadder(n, k) },
	func(n, k int) *Base { return NewRipple(n, k) },
	func(n, k int) *Base { return NewAddUp(k, n) },
	func(n, k int) *Base { return NewSharedScan(n, n/2, k) },
	func(n, k int) *Base { return NewRandom(n, k*n) },
	func(n, k int) *Base { return NewOMPKMeans(n, k) },
	func(n, _ int) *Base { return NewQuicksort(n) },
	func(n, k int) *Base { return NewHPL(4*(k+1), n) },
	func(n, k int) *Base { return NewNPBCG(n, k) },
	func(n, _ int) *Base { return NewNPBFT(n) },
	func(n, k int) *Base { return NewNPBLU(4, n/4, k) },
	func(n, k int) *Base { return NewNPBMG(n, k) },
	func(n, _ int) *Base { return NewNPBIS(n) },
	func(n, _ int) *Base { return NewGraphX("BFS", n) },
	func(n, _ int) *Base { return NewGraphX("CC", n) },
	func(n, _ int) *Base { return NewGraphX("PR", n) },
	func(n, _ int) *Base { return NewGraphX("LP", n) },
	func(n, _ int) *Base { return NewSparkKMeans(n) },
	func(n, _ int) *Base { return NewSparkBayes(n) },
}

// FuzzReplayMatchesFresh checks the one page-program player against
// itself: a replay of a program frozen at seed plays the stream a fresh
// generator Reset at seed plays, access for access, and both report the
// distinct pages of a seed-0 play as their footprint.
func FuzzReplayMatchesFresh(f *testing.F) {
	for ctor := range fuzzCtors {
		f.Add(uint8(ctor), uint8(0), uint8(0), int64(1))
		f.Add(uint8(ctor), uint8(255), uint8(3), int64(-7))
	}
	f.Fuzz(func(t *testing.T, ctor, size, reps uint8, seed int64) {
		build := fuzzCtors[int(ctor)%len(fuzzCtors)]
		n, k := 16+int(size), 1+int(reps)%4
		fresh := build(n, k)
		rep := Freeze(build(n, k), seed).Replay()
		fresh.Reset(seed)
		rep.Reset(seed)
		for i := 0; ; i++ {
			want, wok := fresh.Next()
			got, gok := rep.Next()
			if got != want || gok != wok {
				t.Fatalf("%s(%d, %d) seed %d, access %d: replay %+v (%v), fresh %+v (%v)",
					fresh.Name(), n, k, seed, i, got, gok, want, wok)
			}
			if !wok {
				break
			}
		}
		pages := map[memsim.VPN]bool{}
		fresh.Reset(0)
		for {
			a, ok := fresh.Next()
			if !ok {
				break
			}
			pages[a.Addr.Page()] = true
		}
		if got, want := rep.FootprintPages(), len(pages); got != want {
			t.Fatalf("%s(%d, %d): replay footprint %d, seed-0 play touched %d pages", fresh.Name(), n, k, got, want)
		}
		if got, want := fresh.FootprintPages(), len(pages); got != want {
			t.Fatalf("%s(%d, %d): fresh footprint %d, seed-0 play touched %d pages", fresh.Name(), n, k, got, want)
		}
	})
}
