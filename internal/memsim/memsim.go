// Package memsim provides the elementary address types and page/cacheline
// arithmetic shared by every layer of the HoPP simulation: physical and
// virtual addresses, page numbers, process IDs, and the constants of the
// 4 KB page / 64 B cacheline geometry the paper assumes.
package memsim

// Geometry constants. HoPP (§III-B) assumes 4 KB base pages holding 64
// cachelines of 64 B each; the hot-page threshold N ranges over [1,64].
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096 bytes
	LineShift = 6
	LineSize  = 1 << LineShift // 64 bytes
	// LinesPerPage is the number of cache blocks in a base page (64).
	LinesPerPage = PageSize / LineSize

	// HugePageShift is the 2 MB huge page shift used by the RPT huge flag.
	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift
)

// PID identifies a process. The RPT entry reserves 16 bits for it (Fig. 6).
type PID uint16

// VPN is a virtual page number. The RPT entry reserves 40 bits (Fig. 6),
// enough for a 52-bit virtual address space of 4 KB pages.
type VPN uint64

// PPN is a physical page number.
type PPN uint64

// VAddr is a byte-granularity virtual address.
type VAddr uint64

// PAddr is a byte-granularity physical address.
type PAddr uint64

// MaxVPN is the largest VPN representable in an RPT entry's 40-bit field.
const MaxVPN VPN = (1 << 40) - 1

// Page returns the VPN containing the address.
func (a VAddr) Page() VPN { return VPN(a >> PageShift) }

// LineInPage returns which of the 64 cachelines of its page the address
// falls in.
func (a VAddr) LineInPage() int { return int((uint64(a) >> LineShift) & (LinesPerPage - 1)) }

// Page returns the PPN containing the address.
func (a PAddr) Page() PPN { return PPN(a >> PageShift) }

// Line returns the cacheline index of the physical address.
func (a PAddr) Line() uint64 { return uint64(a) >> LineShift }

// Addr returns the base virtual address of the page.
func (v VPN) Addr() VAddr { return VAddr(v << PageShift) }

// Addr returns the base physical address of the page.
func (p PPN) Addr() PAddr { return PAddr(p << PageShift) }

// LineAddr returns the physical address of the i-th cacheline of the page.
func (p PPN) LineAddr(i int) PAddr {
	return PAddr(uint64(p)<<PageShift | uint64(i)<<LineShift)
}

// PageKey identifies a virtual page globally: HoPP's hot page records,
// prefetch requests, and the remote node's store all key on PID+VPN.
type PageKey struct {
	PID PID
	VPN VPN
}

// Pack flattens the key into one uint64 (VPN in the high bits, PID in
// the low 16) for flat-hash containers. VPNs are bounded by the RPT's
// 40-bit field, so the packed value never reaches all-ones — which
// those containers reserve as their empty-slot sentinel.
func (k PageKey) Pack() uint64 {
	if k.VPN > MaxVPN {
		panic("memsim: VPN beyond the packable 40-bit range")
	}
	return uint64(k.VPN)<<16 | uint64(k.PID)
}

// Stride is a signed distance between two VPNs, the unit in which all of
// HoPP's stream detection operates (§III-D).
type Stride int64

// StrideBetween returns b-a as a Stride.
func StrideBetween(a, b VPN) Stride { return Stride(int64(b) - int64(a)) }

// Abs returns the absolute value of the stride.
func (s Stride) Abs() Stride {
	if s < 0 {
		return -s
	}
	return s
}
