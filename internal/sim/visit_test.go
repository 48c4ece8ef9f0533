package sim

import (
	"testing"

	"hopp/internal/memsim"
	"hopp/internal/vmm"
	"hopp/internal/workload"
)

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
