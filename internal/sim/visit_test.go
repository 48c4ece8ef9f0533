package sim

import (
	"testing"

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
// must record the same counts. HoPP plays a batch line by line; without
// a memory controller a batch the stop rule does not cut is one sum.
func TestVisitBatchFiresEventsOnTime(t *testing.T) {
	for _, sys := range []System{HoPP(), NoPrefetch()} {
		t.Run(sys.Name, func(t *testing.T) { testVisitBatchFiresEventsOnTime(t, sys) })
	}
}

func testVisitBatchFiresEventsOnTime(t *testing.T, sys System) {
	fired := func(gen workload.Generator) []uint64 {
		m := MustNew(Config{Seed: 1, System: sys}, gen)
		var at []uint64
		for i := 1; i <= 2000; i++ {
			m.queue.Schedule(vclock.Time(i*997), func(vclock.Time) { at = append(at, m.met.Accesses) })
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	got := fired(workload.NewSequential(64, 40))
	want := fired(perAccess{workload.NewSequential(64, 40)})
	if len(got) != len(want) {
		t.Fatalf("batched run fired %d probes, per-access %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("probe %d fired at access %d batched, %d per-access", i, got[i], want[i])
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
