package rpt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hopp/internal/memsim"
)

func TestEntryPackRoundTrip(t *testing.T) {
	cases := []Entry{
		{},
		{PID: 0xffff, VPN: memsim.MaxVPN, Shared: true, Huge: Page1G, Valid: true},
		{PID: 42, VPN: 0x123456789, Huge: Page2M, Valid: true},
		{PID: 1, VPN: 7, Shared: true, Valid: true},
	}
	for _, e := range cases {
		got := Unpack(e.Pack())
		if got != e {
			t.Errorf("round trip: got %+v, want %+v", got, e)
		}
	}
}

func TestEntryPackRoundTripProperty(t *testing.T) {
	f := func(pid uint16, vpn uint64, shared, valid bool, huge uint8) bool {
		e := Entry{
			PID:    memsim.PID(pid),
			VPN:    memsim.VPN(vpn) & memsim.MaxVPN,
			Shared: shared,
			Huge:   HugeClass(huge % 3),
			Valid:  valid,
		}
		return Unpack(e.Pack()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEntryLayoutFig6 pins each field of a packed entry to the bit
// positions of Fig. 6 (PID 16 b, VPN 40 b, shared 1 b, huge 2 b, valid
// 1 b, the top four bits unused). Round trips alone would pass a layout
// with two fields swapped.
func TestEntryLayoutFig6(t *testing.T) {
	cases := []struct {
		name string
		e    Entry
		want uint64
	}{
		{"empty", Entry{}, 0},
		{"pid", Entry{PID: 0xffff}, 0xffff},
		{"pid-low", Entry{PID: 1}, 1},
		{"vpn", Entry{VPN: memsim.MaxVPN}, (1<<40 - 1) << 16},
		{"vpn-low", Entry{VPN: 1}, 1 << 16},
		{"vpn-high", Entry{VPN: 1 << 39}, 1 << 55},
		{"shared", Entry{Shared: true}, 1 << 56},
		{"huge-2M", Entry{Huge: Page2M}, 1 << 57},
		{"huge-1G", Entry{Huge: Page1G}, 2 << 57},
		{"huge-mask", Entry{Huge: 3}, 3 << 57},
		{"valid", Entry{Valid: true}, 1 << 59},
		{"all", Entry{PID: 0xffff, VPN: memsim.MaxVPN, Shared: true, Huge: 3, Valid: true}, 1<<60 - 1},
	}
	for _, c := range cases {
		got := c.e.Pack()
		if got != c.want {
			t.Errorf("%s: Pack = %#016x, want %#016x", c.name, got, c.want)
		}
		if got>>60 != 0 {
			t.Errorf("%s: Pack = %#016x sets bits 60–63", c.name, got)
		}
	}
}

func TestHugeClassString(t *testing.T) {
	if PageBase.String() != "4K" || Page2M.String() != "2M" || Page1G.String() != "1G" {
		t.Fatal("HugeClass names wrong")
	}
}

func TestSizeBytes(t *testing.T) {
	// §III-C: 64 GB local memory needs ~112 MB ⇒ 8 B per 4 KB page = 128 MiB
	// (the paper's 112 MB uses decimal GB; either way the ratio is 0.195%).
	got := uint64(64<<30) / memsim.PageSize * EntrySize
	if got != 128<<20 {
		t.Fatalf("a flat table over 64 GiB takes %d bytes, want 128 MiB", got)
	}
	ratio := float64(got) / float64(64<<30)
	if ratio > 0.002 {
		t.Fatalf("RPT overhead ratio %f exceeds paper's ~0.17%%–0.2%%", ratio)
	}
}

func TestCacheMissLoadsFromDRAM(t *testing.T) {
	tbl := NewTable()
	e := Entry{PID: 3, VPN: 99, Valid: true}
	tbl.Store(7, e.Pack())
	c := MustNewCache(tbl, CacheConfig{})
	r0 := tbl.DRAMReads()
	got := c.Lookup(7)
	if got != e {
		t.Fatalf("Lookup = %+v, want %+v", got, e)
	}
	if tbl.DRAMReads() != r0+1 {
		t.Fatal("miss did not read DRAM")
	}
	// Second lookup hits the cache, no new DRAM read.
	c.Lookup(7)
	if tbl.DRAMReads() != r0+1 {
		t.Fatal("hit went to DRAM")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Lookups != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUpdateIsWriteBack(t *testing.T) {
	tbl := NewTable()
	c := MustNewCache(tbl, CacheConfig{})
	c.Update(5, Entry{PID: 1, VPN: 10, Valid: true})
	if tbl.DRAMWrites() != 0 {
		t.Fatal("update wrote through immediately; should be write-back")
	}
	// The dirty line reaches DRAM on Flush.
	c.Flush()
	if tbl.DRAMWrites() != 1 {
		t.Fatalf("DRAMWrites = %d after flush", tbl.DRAMWrites())
	}
	if got := Unpack(tbl.Load(5)); got.VPN != 10 {
		t.Fatalf("flushed entry = %+v", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	tbl := NewTable()
	// 1 set x 2 ways: third distinct PPN evicts.
	c := MustNewCache(tbl, CacheConfig{SizeBytes: 2 * EntrySize, Ways: 2})
	c.Update(0, Entry{PID: 1, VPN: 100, Valid: true})
	c.Update(1, Entry{PID: 1, VPN: 101, Valid: true})
	c.Update(2, Entry{PID: 1, VPN: 102, Valid: true}) // evicts PPN 0 (LRU, dirty)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	if got := Unpack(tbl.Load(0)); got.VPN != 100 || !got.Valid {
		t.Fatalf("evicted entry not written back: %+v", got)
	}
	// Looking PPN 0 up again must recover the written-back mapping.
	if got := c.Lookup(0); got.VPN != 100 {
		t.Fatalf("reload after writeback = %+v", got)
	}
}

func TestInvalidate(t *testing.T) {
	tbl := NewTable()
	c := MustNewCache(tbl, CacheConfig{})
	c.Update(9, Entry{PID: 2, VPN: 5, Valid: true})
	c.Invalidate(9)
	if got := c.Lookup(9); got.Valid {
		t.Fatalf("lookup after invalidate = %+v", got)
	}
	c.Flush()
	if got := Unpack(tbl.Load(9)); got.Valid {
		t.Fatal("invalidation did not reach DRAM")
	}
}

func TestUnmappedLookupIsInvalid(t *testing.T) {
	c := MustNewCache(NewTable(), CacheConfig{})
	if got := c.Lookup(12345); got.Valid {
		t.Fatalf("unmapped PPN returned valid entry: %+v", got)
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	tbl := NewTable()
	if _, err := NewCache(tbl, CacheConfig{SizeBytes: 100, Ways: 16}); err == nil {
		t.Error("ragged geometry accepted")
	}
	if _, err := NewCache(tbl, CacheConfig{SizeBytes: 3 * 16 * EntrySize, Ways: 16}); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
}

// Table III's trend: hit rate grows with cache size for a reuse-heavy
// access pattern.
func TestHitRateGrowsWithCacheSize(t *testing.T) {
	run := func(sizeKB int) float64 {
		tbl := NewTable()
		for p := 0; p < 1<<15; p++ {
			tbl.Store(memsim.PPN(p), Entry{PID: 1, VPN: memsim.VPN(p), Valid: true}.Pack())
		}
		c := MustNewCache(tbl, CacheConfig{SizeBytes: sizeKB << 10})
		rng := rand.New(rand.NewSource(7))
		// Hot-page locality as §III-C describes it: a recently swapped-in
		// working set is re-referenced heavily (hot set), with rare
		// excursions to cold pages.
		for i := 0; i < 500000; i++ {
			var p int
			if rng.Intn(500) == 0 {
				p = 2048 + rng.Intn(1<<14) // cold excursion
			} else {
				p = rng.Intn(2048) // hot working set
			}
			c.Lookup(memsim.PPN(p))
		}
		return c.Stats().HitRate()
	}
	var prev float64 = -1
	for _, kb := range []int{1, 4, 16, 64} {
		hr := run(kb)
		if hr < prev-0.005 { // allow tiny non-monotonic noise
			t.Fatalf("hit rate fell with size: %dKB -> %f (prev %f)", kb, hr, prev)
		}
		prev = hr
	}
	if prev < 0.99 {
		t.Fatalf("64KB hit rate = %f, want ≥0.99 (Table III)", prev)
	}
}

// Property: every lookup is classified exactly once, and DRAM reads only
// happen on misses.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		c := MustNewCache(tbl, CacheConfig{SizeBytes: 1 << 10})
		for i := 0; i < 1000; i++ {
			ppn := memsim.PPN(rng.Intn(512))
			if rng.Intn(3) == 0 {
				c.Update(ppn, Entry{PID: 1, VPN: memsim.VPN(ppn), Valid: true})
			} else {
				c.Lookup(ppn)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Lookups && tbl.DRAMReads() == s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRPTCacheLookup(b *testing.B) {
	tbl := NewTable()
	c := MustNewCache(tbl, CacheConfig{})
	for p := 0; p < 8192; p++ {
		c.Update(memsim.PPN(p), Entry{PID: 1, VPN: memsim.VPN(p), Valid: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(memsim.PPN(i % 8192))
	}
}
