package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hopp/internal/core"
	"hopp/internal/hpd"
	"hopp/internal/refsim"
	"hopp/internal/sim"
	"hopp/internal/vclock"
	"hopp/internal/workload"
)

// A visit batch must end before the line whose clock reaches a queued
// event, exactly where the reference machine, one access per trip,
// fires it. Probe events spread over the run record the access count
// they fire at; both machines must record the same counts and the same
// Metrics. A batch whose DRAM lines cannot turn its page hot is one sum
// when the stop rule does not cut it; a batch that can plays line by
// line and ends at the crossing line. Under a memory limit HoPP's pages
// move to fresh frames, so its batches see DRAM lines and both kinds
// occur: a visit to a refilled page crosses, and the rest of it is a
// sum onto a page whose record was sent. That case streams 512 pages,
// more than the HPD table's 64 entries: over fewer, the frames the
// limit recycles keep their sent entries and cross no more.
func TestVisitBatchFiresEventsOnTime(t *testing.T) {
	small := func() *workload.Base { return workload.NewSequential(64, 40) }
	for _, tc := range []struct {
		name string
		cfg  sim.Config
		gen  func() *workload.Base
	}{
		{"HoPP", sim.Config{Seed: 1, System: sim.HoPP()}, small},
		{"HoPP-limited", sim.Config{Seed: 1, System: sim.HoPP(), LocalMemoryFrac: 0.5}, func() *workload.Base { return workload.NewSequential(512, 5) }},
		{"NoPrefetch", sim.Config{Seed: 1, System: sim.NoPrefetch()}, small},
	} {
		t.Run(tc.name, func(t *testing.T) { testVisitBatchFiresEventsOnTime(t, tc.cfg, tc.gen) })
	}
}

func testVisitBatchFiresEventsOnTime(t *testing.T, cfg sim.Config, gen func() *workload.Base) {
	m, ref := sim.MustNew(cfg, gen()), refsim.New(cfg, gen())
	var got, want []uint64
	for i := 1; i <= 2000; i++ {
		when := vclock.Time(i * 997)
		m.Probe(when, func(accesses uint64) { got = append(got, accesses) })
		ref.Probe(when, func(accesses uint64) { want = append(want, accesses) })
	}
	gotMet, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantMet, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("machine fired %d probes, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("probe %d fired at access %d on the machine, %d on the reference", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotMet, wantMet) {
		t.Fatalf("machine Metrics differ from the reference:\n got  %+v\n want %+v", gotMet, wantMet)
	}
	if cfg.LocalMemoryFrac != 0 {
		// Refilled pages cross the threshold, and there are more DRAM
		// lines than the crossings consume: the rest run onto counting
		// or sent pages, in batches that are sums.
		threshold := uint64(hpd.Default().Threshold)
		if gotMet.MajorFaults == 0 || gotMet.HotPagesEmitted == 0 || gotMet.DRAMHits <= threshold*gotMet.HotPagesEmitted {
			t.Fatalf("limited run has %d major faults, %d hot pages, %d DRAM hits: want faults, crossings and sum runs",
				gotMet.MajorFaults, gotMet.HotPagesEmitted, gotMet.DRAMHits)
		}
	}
}

// opaque hides a generator's concrete type.
type opaque struct{ workload.Generator }

// TestNewRejectsOtherGenerators: the machine plays page programs, so an
// app that is not a *workload.Base is an error naming it.
func TestNewRejectsOtherGenerators(t *testing.T) {
	_, err := sim.New(sim.Config{System: sim.NoPrefetch()}, workload.NewSequential(8, 1), opaque{workload.NewRandom(8, 8)})
	if err == nil || !strings.Contains(err.Error(), "app 2 (Random)") {
		t.Fatalf("New with a wrapped generator: error %v, want one naming app 2 (Random)", err)
	}
}

// fuzzCtors builds workloads from one small page count n (16–271) and a
// small repeat count k (1–4).
var fuzzCtors = []func(n, k int) *workload.Base{
	func(n, k int) *workload.Base { return workload.NewSequential(n, k) },
	func(n, k int) *workload.Base { return workload.NewStrided(n, int64(k+1), k) },
	func(n, k int) *workload.Base { return workload.NewIntertwined(n, 0.05*float64(k)) },
	func(n, k int) *workload.Base { return workload.NewLadder(n, k) },
	func(n, k int) *workload.Base { return workload.NewRipple(n, k) },
	func(n, k int) *workload.Base { return workload.NewAddUp(k, n) },
	func(n, k int) *workload.Base { return workload.NewSharedScan(n, n/2, k) },
	func(n, k int) *workload.Base { return workload.NewRandom(n, k*n) },
	func(n, k int) *workload.Base { return workload.NewOMPKMeans(n, k) },
	func(n, _ int) *workload.Base { return workload.NewQuicksort(n) },
	func(n, k int) *workload.Base { return workload.NewHPL(4*(k+1), n) },
	func(n, k int) *workload.Base { return workload.NewNPBCG(n, k) },
	func(n, _ int) *workload.Base { return workload.NewNPBFT(n) },
	func(n, k int) *workload.Base { return workload.NewNPBLU(4, n/4, k) },
	func(n, k int) *workload.Base { return workload.NewNPBMG(n, k) },
	func(n, _ int) *workload.Base { return workload.NewNPBIS(n) },
	func(n, _ int) *workload.Base { return workload.NewGraphX("BFS", n) },
	func(n, _ int) *workload.Base { return workload.NewGraphX("PR", n) },
	func(n, _ int) *workload.Base { return workload.NewSparkKMeans(n) },
	func(n, _ int) *workload.Base { return workload.NewSparkBayes(n) },
}

// fuzzSystems are the systems FuzzMachineMatchesReference picks from.
// The bulk variant proves a stream after 8 stride-1 predictions and
// moves 32 pages a request, so the fuzzer's small workloads reach it.
var fuzzSystems = []func() sim.System{
	sim.NoPrefetch, sim.Fastswap, sim.Leap, sim.VMA,
	func() sim.System { return sim.DepthN(16) },
	sim.HoPP,
	func() sim.System {
		p := core.DefaultParams()
		p.Bulk = core.BulkParams{Enable: true, StreamLength: 8, Pages: 32}
		s := sim.HoPPWith(p)
		s.Name = "HoPP-bulk"
		return s
	},
}

// FuzzMachineMatchesReference runs a small workload, alone or beside a
// second one, under any of fuzzSystems at a local memory fraction of 0,
// 0.25, 0.5 or 0.75, on sim.Machine and on the reference machine, and
// requires identical Metrics and errors. The caches take the smallest
// geometry sim.New accepts (32 KB of L2, 64 KB of LLC), so even these
// footprints stream through them.
func FuzzMachineMatchesReference(f *testing.F) {
	for ctor := range fuzzCtors {
		f.Add(uint8(ctor), uint8(40), uint8(1), int64(1), uint8(ctor), uint8(ctor), uint8(0))
	}
	f.Add(uint8(0), uint8(200), uint8(2), int64(3), uint8(5), uint8(2), uint8(5))
	f.Add(uint8(8), uint8(100), uint8(1), int64(-9), uint8(6), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, ctor, size, reps uint8, seed int64, system, frac, second uint8) {
		n, k := 16+int(size), 1+int(reps)%4
		build := fuzzCtors[int(ctor)%len(fuzzCtors)]
		builds := []func(n, k int) *workload.Base{build}
		if second != 0 {
			builds = append(builds, fuzzCtors[int(second-1)%len(fuzzCtors)])
		}
		cfg := sim.Config{
			System:          fuzzSystems[int(system)%len(fuzzSystems)](),
			LocalMemoryFrac: []float64{0, 0.25, 0.5, 0.75}[frac%4],
			Seed:            seed,
			L2Bytes:         32 << 10,
			LLCBytes:        64 << 10,
		}
		gens, refGens := make([]workload.Generator, len(builds)), make([]*workload.Base, len(builds))
		for i, b := range builds {
			gens[i], refGens[i] = b(n, k), b(n, k)
		}
		got, gotErr := sim.Run(context.Background(), cfg, gens...)
		want, wantErr := refsim.Run(cfg, refGens...)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("machine error %v, reference error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s(%d, %d)+%d apps under %s at %v: machine Metrics differ from the reference:\n got  %+v\n want %+v",
				gens[0].Name(), n, k, len(gens), cfg.System.Name, cfg.LocalMemoryFrac, got, want)
		}
	})
}
