package radix

import (
	"testing"

	"hopp/internal/memsim"
)

// fuzzBases are the key neighbourhoods the fuzz ops draw from: the
// first leaf, a leaf boundary, a middle-node boundary, the first key
// past the first top slot's reach, a far top slot, and the top of the
// key space. An op's offset byte moves the key up to 128 below or 127
// above its base.
var fuzzBases = [...]uint64{
	0,
	leafSize,
	1 << topShift,
	midSize << topShift,
	1 << 30,
	uint64(memsim.MaxVPN),
}

func fuzzKey(sel, off byte) uint64 {
	k := fuzzBases[int(sel)%len(fuzzBases)] + uint64(off)
	if k < 128 {
		return 0
	}
	return k - 128
}

// FuzzIndexMatchesMap drives an Index[int] and a naive model through
// the same op stream: a Go map of written values plus the set of
// allocated leaves, which is what decides whether Get answers nil. Each
// op is four bytes: the op code, a base selector and an offset that
// pick the key, and an argument byte (the Reserve length). Every record
// pointer handed out is remembered and must stay the same for the
// Index's lifetime, across top-slice growth; At must return Get's
// pointer for every allocated key.
func FuzzIndexMatchesMap(f *testing.F) {
	const (
		lo   = 0 // fuzzBases index of key 0
		leaf = 1 // leaf boundary
		mid  = 2 // middle-node boundary
		top  = 3 // top-slice boundary
		far  = 4
		max  = 5 // memsim.MaxVPN
	)
	f.Add([]byte{1, lo, 128, 0, 0, lo, 128, 0, 1, leaf, 127, 0, 0, leaf, 128, 0, 2, leaf, 100, 3, 0, leaf, 160, 0})
	f.Add([]byte{1, mid, 127, 0, 1, mid, 128, 0, 0, mid, 127, 0, 0, mid, 128, 0, 0, top, 128, 0, 1, top, 128, 0, 0, top, 127, 0, 1, far, 200, 0, 0, mid, 128, 0})
	f.Add([]byte{0, max, 128, 0, 1, max, 128, 0, 1, max, 129, 0, 0, max, 128, 0, 0, max, 127, 0, 2, max, 0, 255, 1, lo, 130, 0, 0, max, 128, 0})
	f.Add([]byte{2, top, 100, 200, 0, top, 127, 0, 0, top, 200, 0, 1, top, 127, 0, 2, top, 100, 200, 0, top, 127, 0})
	// An empty Reserve allocates nothing, not even the leaf its lo
	// falls in.
	f.Add([]byte{2, top, 100, 0, 0, top, 100, 0, 2, max, 200, 1, 0, max, 128, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index[int]
		vals := map[uint64]int{}
		leaves := map[uint64]bool{}
		ptrs := map[uint64]*int{}
		check := func(op int, k uint64) {
			got := x.Get(k)
			if !leaves[k/leafSize] {
				if got != nil {
					t.Fatalf("op %d: Get(%#x) = %d, want nil", op, k, *got)
				}
				return
			}
			if got == nil || *got != vals[k] {
				t.Fatalf("op %d: Get(%#x) = %v, want %d", op, k, got, vals[k])
			}
			if at := x.At(k); at != got {
				t.Fatalf("op %d: At(%#x) = %p, Get %p", op, k, at, got)
			}
			if p, ok := ptrs[k]; ok && p != got {
				t.Fatalf("op %d: Get(%#x) moved from %p to %p", op, k, p, got)
			}
			ptrs[k] = got
		}
		for i := 0; i+3 < len(data); i += 4 {
			op, k, arg := i/4, fuzzKey(data[i+1], data[i+2]), data[i+3]
			switch data[i] % 3 {
			case 0:
				check(op, k)
			case 1: // Slot, then a write through it
				if k > uint64(memsim.MaxVPN) {
					mustPanic(t, func() { x.Slot(k) })
					continue
				}
				p := x.Slot(k)
				leaves[k/leafSize] = true
				if *p != vals[k] {
					t.Fatalf("op %d: *Slot(%#x) = %d, want %d", op, k, *p, vals[k])
				}
				*p = op + 1
				vals[k] = op + 1
				check(op, k)
			case 2: // Reserve [k, k+arg*64), clamped to the key space
				hi := k + uint64(arg)*64
				if hi > uint64(memsim.MaxVPN)+1 {
					hi = uint64(memsim.MaxVPN) + 1
				}
				x.Reserve(k, hi)
				for l := k / leafSize; k < hi && l <= (hi-1)/leafSize; l++ {
					leaves[l] = true
				}
				check(op, k)
			}
		}
		for k := range vals {
			check(-1, k)
		}
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f()
}

func TestKeyBeyondMaxVPNPanics(t *testing.T) {
	var x Index[int]
	beyond := uint64(memsim.MaxVPN) + 1
	mustPanic(t, func() { x.Slot(beyond) })
	mustPanic(t, func() { x.Reserve(beyond-1, beyond+1) })
	if x.Get(beyond) != nil {
		t.Fatal("Get beyond MaxVPN returned a record")
	}
	// The last key itself is valid.
	*x.Slot(uint64(memsim.MaxVPN)) = 7
	if p := x.Get(uint64(memsim.MaxVPN)); p == nil || *p != 7 {
		t.Fatalf("Get(MaxVPN) = %v, want 7", p)
	}
}
