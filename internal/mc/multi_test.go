package mc

import (
	"testing"

	"hopp/internal/hpd"
	"hopp/internal/memsim"
	"hopp/internal/rpt"
	"hopp/internal/vclock"
)

func TestMultiDefaultsToOneChannel(t *testing.T) {
	m := MustNewMulti(MultiConfig{})
	if m.Channels() != 1 {
		t.Fatalf("channels = %d", m.Channels())
	}
}

func TestMultiInterleavedThresholdReduction(t *testing.T) {
	// 4 interleaved channels: each sees every 4th line of a page, so the
	// effective per-channel threshold becomes 8/4 = 2.
	m := MustNewMulti(MultiConfig{Channels: 4, Interleaved: true})
	m.SetMapping(7, 1, 70, false, rpt.PageBase)
	// Touch the first 8 lines of the page: each channel sees 2 misses,
	// which must be enough to extract the page (on every channel that
	// crossed its reduced threshold).
	for i := 0; i < 8; i++ {
		m.ObserveMiss(0, memsim.PPN(7).LineAddr(i), false)
	}
	if got := len(m.DrainInto(nil, 0)); got == 0 {
		t.Fatal("reduced threshold did not extract the page")
	}
}

func TestMultiKeepThreshold(t *testing.T) {
	m := MustNewMulti(MultiConfig{Channels: 4, Interleaved: true, KeepThreshold: true,
		PerChannel: Config{HPD: hpd.Config{Threshold: 8}}})
	m.SetMapping(7, 1, 70, false, rpt.PageBase)
	for i := 0; i < 8; i++ {
		m.ObserveMiss(0, memsim.PPN(7).LineAddr(i), false)
	}
	if got := len(m.DrainInto(nil, 0)); got != 0 {
		t.Fatalf("KeepThreshold channels extracted after only 2 per-channel misses: %d", got)
	}
}

func TestMultiInterleavedRepeatedExtractions(t *testing.T) {
	// With interleaving, several channels can extract the same page —
	// the §III-B repeated extraction the trainer deduplicates.
	m := MustNewMulti(MultiConfig{Channels: 2, Interleaved: true})
	m.SetMapping(3, 1, 30, false, rpt.PageBase)
	for i := 0; i < memsim.LinesPerPage; i++ {
		m.ObserveMiss(vclock.Time(i), memsim.PPN(3).LineAddr(i), false)
	}
	hps := m.DrainInto(nil, 0)
	if len(hps) != 2 {
		t.Fatalf("extractions = %d, want one per channel", len(hps))
	}
	for _, hp := range hps {
		if hp.VPN != 30 || !hp.Mapped {
			t.Fatalf("bad record %+v", hp)
		}
	}
}

func TestMultiPartitionedRouting(t *testing.T) {
	// Non-interleaved: a page's lines all hit one channel; its full 8
	// misses land there and extract exactly once.
	m := MustNewMulti(MultiConfig{Channels: 4, Interleaved: false})
	m.SetMapping(5, 1, 50, false, rpt.PageBase)
	for i := 0; i < 8; i++ {
		m.ObserveMiss(0, memsim.PPN(5).LineAddr(i), false)
	}
	if got := len(m.DrainInto(nil, 0)); got != 1 {
		t.Fatalf("extractions = %d, want 1", got)
	}
}

func TestMultiDrainMergesByTime(t *testing.T) {
	m := MustNewMulti(MultiConfig{Channels: 2, Interleaved: false,
		PerChannel: Config{HPD: hpd.Config{Threshold: 1}}})
	// Pages 2 and 3 route to different channels (ppn%2); interleave
	// their observation times.
	m.SetMapping(2, 1, 20, false, rpt.PageBase)
	m.SetMapping(3, 1, 30, false, rpt.PageBase)
	m.ObserveMiss(200, memsim.PPN(3).LineAddr(0), false)
	m.ObserveMiss(100, memsim.PPN(2).LineAddr(0), false)
	hps := m.DrainInto(nil, 0)
	if len(hps) != 2 {
		t.Fatalf("records = %d", len(hps))
	}
	if !(hps[0].Time <= hps[1].Time) {
		t.Fatalf("drain not time-ordered: %v then %v", hps[0].Time, hps[1].Time)
	}
}

func TestMultiMaintenanceBroadcast(t *testing.T) {
	m := MustNewMulti(MultiConfig{Channels: 2, Interleaved: true,
		PerChannel: Config{HPD: hpd.Config{Threshold: 1}}})
	m.SetMapping(9, 4, 90, false, rpt.PageBase)
	// Both channels must resolve the mapping.
	m.ObserveMiss(0, memsim.PPN(9).LineAddr(0), false) // channel 0
	m.ObserveMiss(0, memsim.PPN(9).LineAddr(1), false) // channel 1
	for _, hp := range m.DrainInto(nil, 0) {
		if !hp.Mapped || hp.VPN != 90 {
			t.Fatalf("channel missed broadcast mapping: %+v", hp)
		}
	}
	m.ClearMapping(9)
	m.ObserveMiss(0, memsim.PPN(9).LineAddr(2), false)
	m.ObserveMiss(0, memsim.PPN(9).LineAddr(3), false)
	for _, hp := range m.DrainInto(nil, 0) {
		if hp.Mapped {
			t.Fatalf("channel missed broadcast clear: %+v", hp)
		}
	}
}

func TestMultiAggregateStats(t *testing.T) {
	m := MustNewMulti(MultiConfig{Channels: 2, Interleaved: true})
	for i := 0; i < 16; i++ {
		m.ObserveMiss(0, memsim.PPN(1).LineAddr(i), false)
	}
	s := m.Stats()
	if s.ReadMisses != 16 || s.MissBytes != 16*memsim.LineSize {
		t.Fatalf("aggregate stats = %+v", s)
	}
	if m.HPDStats().Accesses != 16 {
		t.Fatalf("HPD accesses = %d", m.HPDStats().Accesses)
	}
	if m.RPTCacheStats().Lookups == 0 {
		t.Fatal("no RPT lookups aggregated")
	}
}

func TestMultiBadConfig(t *testing.T) {
	if _, err := NewMulti(MultiConfig{Channels: -1}); err == nil {
		t.Error("negative channels accepted")
	}
	if _, err := NewMulti(MultiConfig{Channels: 2, PerChannel: Config{HPD: hpd.Config{Sets: 3}}}); err == nil {
		t.Error("bad per-channel config accepted")
	}
}
