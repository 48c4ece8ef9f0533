package sim

import (
	"reflect"
	"testing"

	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/vclock"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

// perAccess hides a generator's concrete type, so the machine steps it
// one access at a time instead of batching the rest of each visit.
type perAccess struct{ workload.Generator }

// A visit batch must end before the line whose clock reaches a queued
// event, exactly where the per-access path would fire it. Probe events
// spread over the run record the access count they fire at; both paths
// must record the same counts and the same Metrics. A batch whose DRAM
// lines cannot turn its page hot is one sum when the stop rule does not
// cut it; a batch that can plays line by line and ends at the crossing
// line. Under a memory limit HoPP's pages move to fresh frames, so its
// batches see DRAM lines and both kinds occur: a visit to a refilled
// page crosses, and the rest of it is a sum onto a page whose record
// was sent. That case streams 512 pages, more than the HPD table's 64
// entries: over fewer, the frames the limit recycles keep their sent
// entries and cross no more.
func TestVisitBatchFiresEventsOnTime(t *testing.T) {
	small := func() workload.Generator { return workload.NewSequential(64, 40) }
	for _, tc := range []struct {
		name string
		cfg  Config
		gen  func() workload.Generator
	}{
		{"HoPP", Config{Seed: 1, System: HoPP()}, small},
		{"HoPP-limited", Config{Seed: 1, System: HoPP(), LocalMemoryFrac: 0.5}, func() workload.Generator { return workload.NewSequential(512, 5) }},
		{"NoPrefetch", Config{Seed: 1, System: NoPrefetch()}, small},
	} {
		t.Run(tc.name, func(t *testing.T) { testVisitBatchFiresEventsOnTime(t, tc.cfg, tc.gen) })
	}
}

func testVisitBatchFiresEventsOnTime(t *testing.T, cfg Config, gen func() workload.Generator) {
	fired := func(gen workload.Generator) ([]uint64, Metrics) {
		m := MustNew(cfg, gen)
		var at []uint64
		for i := 1; i <= 2000; i++ {
			m.queue.Schedule(vclock.Time(i*997), func(vclock.Time) { at = append(at, m.met.Accesses) })
		}
		met, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return at, met
	}
	got, gotMet := fired(gen())
	want, wantMet := fired(perAccess{gen()})
	if len(got) != len(want) {
		t.Fatalf("batched run fired %d probes, per-access %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("probe %d fired at access %d batched, %d per-access", i, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotMet, wantMet) {
		t.Fatalf("batched Metrics differ from per-access:\n got  %+v\n want %+v", gotMet, wantMet)
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

// On a 2-app machine a batch plays a line only while its app would be
// picked next: RunContext picks active[0] unless active[1] is strictly
// earlier, so on a clock tie the second app's batch must stop and the
// first app's must go on.
func TestVisitBatchTieGoesToFirstApp(t *testing.T) {
	for _, second := range []bool{true, false} {
		m := MustNew(Config{Seed: 1, System: HoPP()}, workload.NewSequential(4, 2), workload.NewSequential(4, 2))
		m.active = append(m.active[:0], m.apps...)
		a, peer := m.apps[0], m.apps[1]
		if second {
			a, peer = peer, a
		}
		// The first access faults the page in and leaves 63 lines of its
		// visit to play.
		if err := m.step(a); err != nil {
			t.Fatal(err)
		}
		state, ppn, _ := m.vm.Access(memsim.PageKey{PID: a.pid, VPN: 0x10000})
		if state != vmm.Mapped {
			t.Fatalf("page state %v after the first access, want mapped", state)
		}
		// runVisit plays line 0 again as the batch's opening line, an L2
		// hit that step has already counted: Accesses moves only for
		// later lines, and the peer ties a's clock after the hit.
		peer.now = a.now.Add(m.costs.CacheHit)
		before := m.met.Accesses
		m.runVisit(a, ppn, 0, false)
		if played := m.met.Accesses - before; (played == 0) != second {
			t.Fatalf("second app = %v: a tied batch played %d lines", second, played)
		}
	}
}
