package hpd

import (
	"testing"

	"hopp/internal/memsim"
)

// naiveTable is the reference model of the HPD table, written from the
// §III-B policy rather than the packed implementation: each set is a
// slice of entries scanned in full, a miss appends while the set has
// room and otherwise replaces the oldest last-use stamp, and every entry
// carries its own access count and send bit.
type naiveTable struct {
	ways, threshold int
	sets            [][]naiveEntry
	tick            uint64
	stats           Stats
}

type naiveEntry struct {
	ppn   memsim.PPN
	stamp uint64
	count int
	sent  bool
}

func newNaiveTable(cfg Config) *naiveTable {
	return &naiveTable{ways: cfg.Ways, threshold: cfg.Threshold, sets: make([][]naiveEntry, cfg.Sets)}
}

func (n *naiveTable) access(ppn memsim.PPN) bool {
	n.tick++
	n.stats.Accesses++
	set := &n.sets[int(ppn)%len(n.sets)]
	var e *naiveEntry
	for i := range *set {
		if (*set)[i].ppn == ppn {
			e = &(*set)[i]
			break
		}
	}
	switch {
	case e != nil:
		e.stamp = n.tick
		if e.sent {
			n.stats.SendSuppressed++
			return false
		}
		e.count++
	case len(*set) < n.ways:
		*set = append(*set, naiveEntry{ppn: ppn, stamp: n.tick, count: 1})
		e = &(*set)[len(*set)-1]
		n.stats.Insertions++
	default:
		e = &(*set)[0]
		for i := range *set {
			if (*set)[i].stamp < e.stamp {
				e = &(*set)[i]
			}
		}
		n.stats.Evictions++
		if !e.sent {
			n.stats.EvictedBeforeHot++
		}
		*e = naiveEntry{ppn: ppn, stamp: n.tick, count: 1}
		n.stats.Insertions++
	}
	if e.count >= n.threshold {
		e.sent = true
		n.stats.HotPages++
		return true
	}
	return false
}

// toHot counts the accesses to ppn, with nothing in between, that
// make it hot: the threshold for an untracked page, none once sent.
func (n *naiveTable) toHot(ppn memsim.PPN) int {
	for _, e := range n.sets[int(ppn)%len(n.sets)] {
		if e.ppn == ppn {
			if e.sent {
				return 0
			}
			return n.threshold - e.count
		}
	}
	return n.threshold
}

func (n *naiveTable) tracked() int {
	total := 0
	for _, s := range n.sets {
		total += len(s)
	}
	return total
}

// FuzzTableMatchesNaive decodes a geometry and a miss stream from the
// input and requires Table to agree with naiveTable on every hot
// decision, the final Stats and the tracked-entry count. data[0] picks
// 1–16 ways, data[1] 1–8 sets, data[2] a threshold of 1–12; each
// following byte is a miss to one of 255 pages, 255 resets both, and
// 254 with two bytes after it starts a run: they are its page and a
// length of 0–64. ToHot must equal the naive accesses until hot; the length is
// clipped to ToHot unless that is 0, and AccessRun must match as many
// naive accesses.
func FuzzTableMatchesNaive(f *testing.F) {
	f.Add([]byte{15, 2, 7, 0, 0, 4, 0, 8, 0, 0, 0, 0, 0, 0, 4, 4})
	f.Add([]byte{1, 0, 2, 1, 2, 1, 3, 1, 2, 255, 1, 1, 2, 3})
	f.Add([]byte{0, 3, 0, 1, 9, 1, 17, 9, 25, 1})
	// A run onto a sent page: page 5 crosses at threshold 2, then runs
	// of 9 and 64 are all suppressed.
	f.Add([]byte{3, 0, 1, 5, 5, 254, 5, 9, 254, 5, 64, 6})
	// Runs that cross at threshold 1, on a fresh page and after a plain
	// access to another.
	f.Add([]byte{2, 1, 0, 254, 7, 3, 8, 254, 9, 1, 254, 7, 5})
	// Runs after the set's LRU evicts the filter entry: one way per set
	// and threshold 4, so each access to another even page evicts the
	// last page touched. Page 4 evicts page 2 mid-count; page 2's run
	// then finds it fresh and evicts page 4, and so on.
	f.Add([]byte{0, 1, 3, 2, 254, 2, 2, 4, 254, 2, 3, 254, 4, 9, 6, 254, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{Ways: int(data[0]%16) + 1, Sets: 1 << (data[1] % 4), Threshold: int(data[2]%12) + 1}
		tbl := MustNew(cfg)
		n := newNaiveTable(cfg)
		ops := data[3:]
		for i := 0; i < len(ops); i++ {
			switch b := ops[i]; {
			case b == 255:
				tbl.Reset()
				n = newNaiveTable(cfg)
			case b == 254 && i+2 < len(ops):
				ppn, k := memsim.PPN(ops[i+1]), int(ops[i+2]%65)
				i += 2
				toHot := tbl.ToHot(ppn)
				if want := n.toHot(ppn); toHot != want {
					t.Fatalf("op %d: ToHot(%d) = %d, naive %d", i, ppn, toHot, want)
				}
				if toHot != 0 && k > toHot {
					k = toHot
				}
				want := false
				for j := 0; j < k; j++ {
					want = n.access(ppn) || want
				}
				if got := tbl.AccessRun(ppn, k); got != want {
					t.Fatalf("op %d: AccessRun(%d, %d) hot=%v, naive %v", i, ppn, k, got, want)
				}
			default:
				if got, want := tbl.Access(memsim.PPN(b)), n.access(memsim.PPN(b)); got != want {
					t.Fatalf("op %d: Access(%d) hot=%v, naive %v", i, b, got, want)
				}
			}
		}
		if got := tbl.Stats(); got != n.stats {
			t.Fatalf("stats %+v, naive %+v", got, n.stats)
		}
		if got, want := tbl.Tracked(), n.tracked(); got != want {
			t.Fatalf("Tracked() = %d, naive %d", got, want)
		}
	})
}
