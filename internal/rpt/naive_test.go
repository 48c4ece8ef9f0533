package rpt

import (
	"testing"

	"hopp/internal/memsim"
)

// naiveCache is the reference model of the RPT cache, written from
// §III-C rather than the flat-array implementation: every read and
// write passes through a set-associative write-back cache with LRU
// replacement, so a lookup always returns the last entry written for
// its PPN, whatever DRAM holds. Each set is a slice ordered most
// recently used first; a line carries only its PPN and a dirty bit,
// since its value is always last[ppn]. dram is the table as the
// writebacks leave it.
type naiveCache struct {
	ways  int
	sets  [][]naiveLine
	last  map[memsim.PPN]Entry
	dram  map[memsim.PPN]Entry
	stats CacheStats
	reads uint64
}

type naiveLine struct {
	ppn   memsim.PPN
	dirty bool
}

func newNaiveCache(ways, sets int) *naiveCache {
	return &naiveCache{
		ways: ways,
		sets: make([][]naiveLine, sets),
		last: map[memsim.PPN]Entry{},
		dram: map[memsim.PPN]Entry{},
	}
}

// preload writes an entry straight to DRAM, as the startup page-table
// traversal does.
func (n *naiveCache) preload(ppn memsim.PPN, e Entry) {
	n.last[ppn] = e
	n.dram[ppn] = e
}

// touch moves ppn's line to the MRU end of its set, installing it (and
// evicting the LRU line of a full set) on a miss. It reports a hit.
func (n *naiveCache) touch(ppn memsim.PPN, dirty bool) bool {
	set := &n.sets[int(ppn)%len(n.sets)]
	for i, l := range *set {
		if l.ppn == ppn {
			copy((*set)[1:i+1], (*set)[:i])
			(*set)[0] = naiveLine{ppn: ppn, dirty: l.dirty || dirty}
			return true
		}
	}
	if len(*set) == n.ways {
		n.writeBack((*set)[n.ways-1])
		*set = (*set)[:n.ways-1]
	}
	*set = append([]naiveLine{{ppn: ppn, dirty: dirty}}, *set...)
	return false
}

func (n *naiveCache) writeBack(l naiveLine) {
	if l.dirty {
		n.dram[l.ppn] = n.last[l.ppn]
		n.stats.Writebacks++
	}
}

func (n *naiveCache) lookup(ppn memsim.PPN) Entry {
	n.stats.Lookups++
	if n.touch(ppn, false) {
		n.stats.Hits++
	} else {
		n.stats.Misses++
		n.reads++
	}
	return n.last[ppn]
}

func (n *naiveCache) update(ppn memsim.PPN, e Entry) {
	n.touch(ppn, true)
	n.last[ppn] = e
}

func (n *naiveCache) flush() {
	for _, set := range n.sets {
		for i := range set {
			n.writeBack(set[i])
			set[i].dirty = false
		}
	}
}

// fuzzEntry spreads one byte over every field of an Entry, including
// the all-zero word an invalidation writes.
func fuzzEntry(b byte) Entry {
	return Entry{
		PID:    memsim.PID(uint16(b) * 257),
		VPN:    memsim.VPN(uint64(b)*0x0101010101) & memsim.MaxVPN,
		Shared: b&1 != 0,
		Huge:   HugeClass(b >> 1 & 3),
		Valid:  b != 0 && b&8 == 0,
	}
}

// FuzzRPTCacheMatchesNaive decodes a geometry, a preloaded DRAM table
// and an op stream from the input, and requires Cache to agree with
// naiveCache on every looked-up Entry, on its Stats after every op, on
// its DRAM reads and writes, and on the DRAM table after a final Flush.
// data[0] picks 1–16 ways, data[1] 1–8 sets, data[2] how many of the
// 64 pages start preloaded in DRAM. Each following byte is an op on
// page b&63: b>>6 is 0 Lookup, 1 Update (with fuzzEntry of the next
// byte), 2 Invalidate, 3 Flush.
func FuzzRPTCacheMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x40, 7, 0x00, 0x41, 9, 0x01, 0x00, 0x81, 0x00, 0xc0, 0x01})
	f.Add([]byte{15, 3, 20, 0x05, 0x45, 3, 0x85, 0x05, 0xc0, 0x05, 0x30, 0x3f})
	f.Add([]byte{3, 1, 64, 0x00, 0x02, 0x04, 0x06, 0x08, 0x42, 0xff, 0x0a, 0x0c, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ways, sets := int(data[0]%16)+1, 1<<(data[1]%4)
		table := NewTable()
		n := newNaiveCache(ways, sets)
		for p := 0; p < int(data[2]%65); p++ {
			e := fuzzEntry(byte(p*37 + 1))
			table.Store(memsim.PPN(p), e.Pack())
			n.preload(memsim.PPN(p), e)
		}
		preloadWrites := table.DRAMWrites()
		c := MustNewCache(table, CacheConfig{SizeBytes: ways * sets * EntrySize, Ways: ways})
		ops := data[3:]
		for i := 0; i < len(ops); i++ {
			op, ppn := ops[i]>>6, memsim.PPN(ops[i]&63)
			switch op {
			case 0:
				if got, want := c.Lookup(ppn), n.lookup(ppn); got != want {
					t.Fatalf("op %d: Lookup(%d) = %+v, naive %+v", i, ppn, got, want)
				}
			case 1:
				var b byte
				if i+1 < len(ops) {
					i++
					b = ops[i]
				}
				c.Update(ppn, fuzzEntry(b))
				n.update(ppn, fuzzEntry(b))
			case 2:
				c.Invalidate(ppn)
				n.update(ppn, Entry{})
			case 3:
				c.Flush()
				n.flush()
			}
			if got := c.Stats(); got != n.stats {
				t.Fatalf("op %d (%d on page %d): stats %+v, naive %+v", i, op, ppn, got, n.stats)
			}
		}
		c.Flush()
		n.flush()
		if got := c.Stats(); got != n.stats {
			t.Fatalf("final flush: stats %+v, naive %+v", got, n.stats)
		}
		if got, want := table.DRAMReads(), n.reads; got != want {
			t.Fatalf("DRAM reads %d, naive %d", got, want)
		}
		if got, want := table.DRAMWrites()-preloadWrites, n.stats.Writebacks; got != want {
			t.Fatalf("DRAM writes %d, naive writebacks %d", got, want)
		}
		want := 0
		for ppn, e := range n.dram {
			if e != (Entry{}) {
				want++
			}
			if got := Unpack(table.entries[ppn]); got != e {
				t.Fatalf("DRAM entry for page %d = %+v, naive %+v", ppn, got, e)
			}
		}
		if table.Len() != want {
			t.Fatalf("DRAM holds %d entries, naive %d", table.Len(), want)
		}
	})
}
