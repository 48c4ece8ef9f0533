package flatmap

import (
	"math/rand"
	"testing"
)

// TestAgainstGoMap drives the flat map and a reference Go map through an
// identical randomized op stream and checks they never disagree.
func TestAgainstGoMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New[int](0)
	ref := map[uint64]int{}
	keys := make([]uint64, 512)
	for i := range keys {
		// Cluster keys to force long probe chains.
		keys[i] = uint64(rng.Intn(64))<<16 | uint64(rng.Intn(8))
	}
	for op := 0; op < 200000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int()
			m.Put(k, v)
			ref[k] = v
		case 2:
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%#x) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 3:
			gotV, gotOK := m.Get(k)
			wantV, wantOK := ref[k]
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("op %d: Get(%#x) = %v,%v want %v,%v", op, k, gotV, gotOK, wantV, wantOK)
			}
			if m.Has(k) != wantOK {
				t.Fatalf("op %d: Has(%#x) = %v, want %v", op, k, !wantOK, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
	n := 0
	m.Range(func(k uint64, v int) bool {
		if ref[k] != v {
			t.Fatalf("Range: key %#x = %d, want %d", k, v, ref[k])
		}
		n++
		return true
	})
	if n != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", n, len(ref))
	}
}
