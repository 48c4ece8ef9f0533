package memsim

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if PageSize != 4096 {
		t.Fatalf("PageSize = %d, want 4096", PageSize)
	}
	if LineSize != 64 {
		t.Fatalf("LineSize = %d, want 64", LineSize)
	}
	if LinesPerPage != 64 {
		t.Fatalf("LinesPerPage = %d, want 64", LinesPerPage)
	}
	if HugePageSize != 2<<20 {
		t.Fatalf("HugePageSize = %d, want 2 MiB", HugePageSize)
	}
}

func TestVAddrPage(t *testing.T) {
	cases := []struct {
		addr VAddr
		page VPN
	}{
		{0, 0},
		{4095, 0},
		{4096, 1},
		{8191, 1},
		{1 << 30, 1 << 18},
	}
	for _, c := range cases {
		if got := c.addr.Page(); got != c.page {
			t.Errorf("VAddr(%#x).Page() = %d, want %d", uint64(c.addr), got, c.page)
		}
	}
}

func TestLineInPage(t *testing.T) {
	if got := PAddr(0).LineInPage(); got != 0 {
		t.Errorf("line of 0 = %d", got)
	}
	if got := PAddr(64).LineInPage(); got != 1 {
		t.Errorf("line of 64 = %d, want 1", got)
	}
	if got := PAddr(4095).LineInPage(); got != 63 {
		t.Errorf("line of 4095 = %d, want 63", got)
	}
	if got := PAddr(4096).LineInPage(); got != 0 {
		t.Errorf("line of 4096 = %d, want 0 (wraps per page)", got)
	}
}

func TestPPNLineAddr(t *testing.T) {
	p := PPN(7)
	for i := 0; i < LinesPerPage; i++ {
		a := p.LineAddr(i)
		if a.Page() != p {
			t.Fatalf("LineAddr(%d) escaped its page: %#x", i, uint64(a))
		}
		if a.LineInPage() != i {
			t.Fatalf("LineAddr(%d).LineInPage() = %d", i, a.LineInPage())
		}
	}
}

func TestStride(t *testing.T) {
	if s := StrideBetween(10, 12); s != 2 {
		t.Errorf("StrideBetween(10,12) = %d, want 2", s)
	}
	if s := StrideBetween(12, 10); s != -2 {
		t.Errorf("StrideBetween(12,10) = %d, want -2", s)
	}
	if Stride(-5).Abs() != 5 || Stride(5).Abs() != 5 || Stride(0).Abs() != 0 {
		t.Error("Stride.Abs broken")
	}
}

// Property: page round-trip — the base address of an address's page is
// never above the address, and within one page of it.
func TestPageRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := VAddr(raw % (1 << 52))
		base := a.Page().Addr()
		return base <= a && uint64(a)-uint64(base) < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: stride arithmetic is antisymmetric.
func TestStrideAntisymmetryProperty(t *testing.T) {
	f := func(x, y uint32) bool {
		a, b := VPN(x), VPN(y)
		return StrideBetween(a, b) == -StrideBetween(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
