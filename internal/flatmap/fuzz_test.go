package flatmap

import "testing"

// FuzzFlatmapMatchesMap drives the flat map and a Go map through the
// same op stream and compares every result, then the final length and
// contents. Each op is two bytes: the op code and a key drawn from a
// small, clustered key space so probe chains collide, wrap and get
// compacted by Delete's backward shift.
func FuzzFlatmapMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2, 3, 1, 4, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 0, 0, 32, 0, 64, 0, 96, 4, 32, 1, 64, 1, 96, 5, 1, 1, 0})
	f.Add([]byte{0, 5, 0, 37, 0, 69, 3, 37, 3, 99, 5, 2, 2, 5, 4, 69, 1, 37})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New[int](int(len(data) % 7))
		ref := map[uint64]int{}
		for i := 0; i+1 < len(data); i += 2 {
			op, b := data[i]%5, data[i+1]
			// Low five bits pick the page, the top three the PID: the
			// packed layout of memsim.PageKey.
			k := uint64(b&31)<<16 | uint64(b>>5)
			switch op {
			case 0: // Put
				m.Put(k, i)
				ref[k] = i
			case 1: // Get
				got, gotOK := m.Get(k)
				want, wantOK := ref[k]
				if got != want || gotOK != wantOK {
					t.Fatalf("op %d: Get(%#x) = %d,%v, want %d,%v", i/2, k, got, gotOK, want, wantOK)
				}
			case 2: // Has
				_, want := ref[k]
				if got := m.Has(k); got != want {
					t.Fatalf("op %d: Has(%#x) = %v, want %v", i/2, k, got, want)
				}
			case 3: // Ptr, then a write through it
				p := m.Ptr(k)
				want, ok := ref[k]
				if (p != nil) != ok {
					t.Fatalf("op %d: Ptr(%#x) present = %v, want %v", i/2, k, p != nil, ok)
				}
				if p != nil {
					if *p != want {
						t.Fatalf("op %d: *Ptr(%#x) = %d, want %d", i/2, k, *p, want)
					}
					*p += 1000
					ref[k] += 1000
				}
			case 4: // Delete
				_, want := ref[k]
				if got := m.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%#x) = %v, want %v", i/2, k, got, want)
				}
				delete(ref, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i/2, m.Len(), len(ref))
			}
		}
		n := 0
		m.Range(func(k uint64, v int) bool {
			if want, ok := ref[k]; !ok || v != want {
				t.Fatalf("final: %#x=%d, want %d (present %v)", k, v, want, ok)
			}
			n++
			return true
		})
		if n != len(ref) {
			t.Fatalf("final: Range visited %d entries, want %d", n, len(ref))
		}
	})
}
