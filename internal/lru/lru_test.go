package lru

import (
	"math/rand"
	"testing"
)

// naiveSet is the reference model of one set: the valid ways in recency
// order, MRU first. It knows the policy, not the packing — which empty
// way a Claim fills is left to Sets, and the model only checks that it
// was empty.
type naiveSet []int

func (n naiveSet) find(w int) int {
	for i, v := range n {
		if v == w {
			return i
		}
	}
	return -1
}

func (n naiveSet) remove(w int) naiveSet {
	i := n.find(w)
	return append(n[:i], n[i+1:]...)
}

// TestSetsMatchNaive drives Sets and the naive model through the same
// random Claim/Touch/Drop sequence at every associativity and checks
// every Claim: full exactly when every way is valid, the LRU valid way
// when full, an empty way otherwise.
func TestSetsMatchNaive(t *testing.T) {
	const sets, steps = 4, 20000
	for ways := 1; ways <= MaxWays; ways++ {
		rng := rand.New(rand.NewSource(int64(ways)))
		s := New(sets, ways)
		model := make([]naiveSet, sets)
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				s.Reset()
				for i := range model {
					model[i] = nil
				}
			}
			set := rng.Intn(sets)
			m := model[set]
			switch op := rng.Intn(8); {
			case op < 4 || len(m) == 0:
				w, full := s.Claim(set)
				if full != (len(m) == ways) {
					t.Fatalf("ways=%d step %d: Claim full=%v with %d of %d valid", ways, step, full, len(m), ways)
				}
				if full {
					if want := m[len(m)-1]; w != want {
						t.Fatalf("ways=%d step %d: Claim evicted way %d, LRU is %d", ways, step, w, want)
					}
					m = m.remove(w)
				} else if w < 0 || w >= ways || m.find(w) >= 0 {
					t.Fatalf("ways=%d step %d: Claim filled way %d, which is not empty (valid %v)", ways, step, w, m)
				}
				m = append(naiveSet{w}, m...)
			case op < 7:
				w := m[rng.Intn(len(m))]
				s.Touch(set, w)
				m = append(naiveSet{w}, m.remove(w)...)
			default:
				w := m[rng.Intn(len(m))]
				s.Drop(set, w)
				m = m.remove(w)
			}
			model[set] = m
		}
	}
}
