package prefetch

import "hopp/internal/memsim"

// Region geometry shared by the region-trained schemes (SPP, HHP):
// 64-page regions, matching the memsim.LinesPerPage granularity of the
// HPD, so one uint64 bitmap covers a region.
const (
	regionShift   = 6
	regionPages   = 1 << regionShift
	regionOffMask = regionPages - 1
)

// issuedBits sizes every issued-prefetch filter: 512 entries.
const issuedBits = 9

// mix is a Fibonacci multiplicative hash; table indices come from its
// high bits.
func mix(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 }

// regionOf packs (PID, VPN>>regionShift) into one region id, mirroring
// memsim.PageKey.Pack's layout (index high, PID low).
func regionOf(key memsim.PageKey) uint64 {
	return (uint64(key.VPN)>>regionShift)<<16 | uint64(key.PID)
}

// issuedFilter attributes an in-flight prefetch back to the state that
// issued it (meta), so feedback trains the right entry. It is
// direct-mapped: a colliding later prefetch replaces an earlier one,
// whose feedback is then dropped.
type issuedFilter[M any] struct {
	slots []issuedSlot[M]
}

type issuedSlot[M any] struct {
	tag  uint64 // packed page key + 1; 0 = empty
	meta M
}

func newIssuedFilter[M any]() issuedFilter[M] {
	return issuedFilter[M]{slots: make([]issuedSlot[M], 1<<issuedBits)}
}

// note remembers that meta issued the prefetch of key.
func (f *issuedFilter[M]) note(key memsim.PageKey, meta M) {
	packed := key.Pack()
	slot := &f.slots[mix(packed)>>(64-issuedBits)]
	slot.tag = packed + 1
	slot.meta = meta
}

// take consumes key's entry, if it is still there.
func (f *issuedFilter[M]) take(key memsim.PageKey) (meta M, ok bool) {
	packed := key.Pack()
	slot := &f.slots[mix(packed)>>(64-issuedBits)]
	if slot.tag != packed+1 {
		return meta, false
	}
	slot.tag = 0
	return slot.meta, true
}
