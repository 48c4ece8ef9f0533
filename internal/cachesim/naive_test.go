package cachesim

import (
	"testing"

	"hopp/internal/memsim"
)

// naiveCache is the reference model of one level, written from the
// policy rather than the packed implementation: each set is a slice of
// resident lines with last-use stamps, a miss appends while the set has
// room and otherwise replaces the oldest stamp, and page invalidation
// scans every set.
type naiveCache struct {
	ways  int
	sets  [][]naiveLine
	tick  uint64
	stats Stats
}

type naiveLine struct {
	line  uint64
	stamp uint64
}

func newNaiveCache(numSets, ways int) *naiveCache {
	return &naiveCache{ways: ways, sets: make([][]naiveLine, numSets)}
}

func (n *naiveCache) access(addr memsim.PAddr) bool {
	n.tick++
	n.stats.Accesses++
	line := addr.Line()
	set := &n.sets[line%uint64(len(n.sets))]
	for i := range *set {
		if (*set)[i].line == line {
			(*set)[i].stamp = n.tick
			n.stats.Hits++
			return true
		}
	}
	n.stats.Misses++
	if len(*set) < n.ways {
		*set = append(*set, naiveLine{line, n.tick})
		return false
	}
	oldest := 0
	for i := range *set {
		if (*set)[i].stamp < (*set)[oldest].stamp {
			oldest = i
		}
	}
	n.stats.Evictions++
	(*set)[oldest] = naiveLine{line, n.tick}
	return false
}

func (n *naiveCache) invalidatePage(p memsim.PPN) int {
	dropped := 0
	for s := range n.sets {
		kept := n.sets[s][:0]
		for _, l := range n.sets[s] {
			if l.line>>(memsim.PageShift-memsim.LineShift) == uint64(p) {
				dropped++
				continue
			}
			kept = append(kept, l)
		}
		n.sets[s] = kept
	}
	return dropped
}

// FuzzCacheMatchesNaive decodes a geometry and an access/invalidate
// stream from the input and requires Cache to agree with naiveCache on
// every Access result, every InvalidatePage count and the final Stats.
// data[0] picks 1–16 ways, data[1] 1–128 sets; each following byte pair
// names one of 32 pages and then either one of its lines to access or,
// for a second byte of 248 and up, the page's invalidation.
func FuzzCacheMatchesNaive(f *testing.F) {
	f.Add([]byte{15, 2, 1, 0, 1, 0, 2, 0, 3, 0, 1, 255, 1, 0})
	f.Add([]byte{1, 7, 3, 5, 4, 5, 3, 5, 3, 9, 4, 9, 5, 9, 3, 250, 3, 5})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 1, 1, 0, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, numSets := int(data[0]%16)+1, 1<<(data[1]%8)
		c := New(Config{Name: "F", SizeBytes: numSets * ways * memsim.LineSize, Ways: ways})
		n := newNaiveCache(numSets, ways)
		for i := 2; i+1 < len(data); i += 2 {
			p := memsim.PPN(data[i] % 32)
			if data[i+1] >= 248 {
				if got, want := c.InvalidatePage(p), n.invalidatePage(p); got != want {
					t.Fatalf("op %d: InvalidatePage(%d) = %d, naive %d", i/2, p, got, want)
				}
				continue
			}
			addr := p.LineAddr(int(data[i+1] % memsim.LinesPerPage))
			if got, want := c.Access(addr), n.access(addr); got != want {
				t.Fatalf("op %d: Access(%#x) hit=%v, naive %v", i/2, addr, got, want)
			}
		}
		if got := c.Stats(); got != n.stats {
			t.Fatalf("stats %+v, naive %+v", got, n.stats)
		}
	})
}
