package proto

import (
	"testing"

	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
)

func TestHotPageFlow(t *testing.T) {
	p := MustNew(Config{})
	p.SetMapping(100, 7, 700, false, rpt.PageBase)
	for i := 0; i < 8; i++ {
		p.ObserveMiss(0, memsim.PPN(100).LineAddr(i), false)
	}
	hps := p.DrainInto(nil, 0)
	if len(hps) != 1 {
		t.Fatalf("hot pages = %d", len(hps))
	}
	if hps[0].PID != 7 || hps[0].VPN != 700 || !hps[0].Mapped {
		t.Fatalf("record = %+v", hps[0])
	}
}

func TestWriteMissFillsCount(t *testing.T) {
	p := MustNew(Config{})
	p.SetMapping(5, 1, 50, false, rpt.PageBase)
	for i := 0; i < 8; i++ {
		p.ObserveMiss(0, memsim.PPN(5).LineAddr(i), true)
	}
	if len(p.DrainInto(nil, 0)) != 1 {
		t.Fatal("write-miss fills must reach the software HPD")
	}
}

func TestUnmappedDropsToInvalid(t *testing.T) {
	p := MustNew(Config{})
	for i := 0; i < 8; i++ {
		p.ObserveMiss(0, memsim.PPN(9).LineAddr(i), false)
	}
	hps := p.DrainInto(nil, 0)
	if len(hps) != 1 || hps[0].Mapped {
		t.Fatalf("records = %+v", hps)
	}
	if p.Stats().HotUnmapped != 1 {
		t.Fatal("HotUnmapped not counted")
	}
}

func TestClearMapping(t *testing.T) {
	p := MustNew(Config{})
	p.SetMapping(3, 1, 30, false, rpt.PageBase)
	p.ClearMapping(3)
	for i := 0; i < 8; i++ {
		p.ObserveMiss(0, memsim.PPN(3).LineAddr(i), false)
	}
	if hp := p.DrainInto(nil, 0)[0]; hp.Mapped {
		t.Fatal("cleared mapping still resolved")
	}
}

func TestTraceBandwidthIsFullTrace(t *testing.T) {
	p := MustNew(Config{})
	for i := 0; i < 64; i++ {
		p.ObserveMiss(0, memsim.PPN(1).LineAddr(i), false)
	}
	p.DrainInto(nil, 0)
	s := p.Stats()
	// 64 records × 6 B = 384 B of trace for 4096 B of misses: ~9.4%,
	// vs the design's ~0.2% — the reason the prototype needs DRAM 1.
	if s.HotBytes != 64*6 {
		t.Fatalf("trace bytes = %d, want %d", s.HotBytes, 64*6)
	}
	ratio := float64(s.HotBytes) / float64(s.MissBytes)
	if ratio < 0.05 {
		t.Fatalf("full-trace bandwidth ratio %f suspiciously low", ratio)
	}
}

func TestOverflowDropsRecords(t *testing.T) {
	p := MustNew(Config{CaptureRecords: 16})
	// 64 misses without a drain: the 16-record ring overflows.
	for i := 0; i < 64; i++ {
		p.ObserveMiss(0, memsim.PPN(memsim.PPN(i)).LineAddr(0), false)
	}
	p.DrainInto(nil, 0)
	if p.CaptureDropped() != 48 {
		t.Fatalf("dropped = %d, want 48", p.CaptureDropped())
	}
}

func TestTimestampReconstruction(t *testing.T) {
	p := MustNew(Config{HPD: hpd.Config{Threshold: 1}})
	p.SetMapping(1, 1, 10, false, rpt.PageBase)
	p.SetMapping(2, 1, 20, false, rpt.PageBase)
	p.ObserveMiss(0, memsim.PPN(1).LineAddr(0), false)
	p.ObserveMiss(1000, memsim.PPN(2).LineAddr(0), false) // 10 ticks later
	hps := p.DrainInto(nil, 0)
	if len(hps) != 2 {
		t.Fatalf("records = %d", len(hps))
	}
	if got := hps[1].Time - hps[0].Time; got != 1000 {
		t.Fatalf("reconstructed gap = %d ns, want 1000", got)
	}
}

func TestRPTStatsAllHits(t *testing.T) {
	p := MustNew(Config{HPD: hpd.Config{Threshold: 1}})
	p.SetMapping(1, 1, 10, false, rpt.PageBase)
	p.ObserveMiss(0, memsim.PPN(1).LineAddr(0), false)
	p.DrainInto(nil, 0)
	s := p.RPTCacheStats()
	if s.Lookups != 1 || s.HitRate() != 1 {
		t.Fatalf("software RPT stats = %+v", s)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{HPD: hpd.Config{Sets: 5}}); err == nil {
		t.Fatal("bad HPD config accepted")
	}
}
