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

// TestSetsMatchNaive drives a few sets' recency words and the naive
// model through the same random Claim/Touch/Drop sequence at every
// associativity and checks every Claim: the LRU valid way when every way
// is valid, an empty way otherwise.
func TestSetsMatchNaive(t *testing.T) {
	const sets, steps = 4, 20000
	for ways := 1; ways <= MaxWays; ways++ {
		rng := rand.New(rand.NewSource(int64(ways)))
		g := New(ways)
		ord := make([]uint64, sets)
		model := make([]naiveSet, sets)
		for step := 0; step < steps; step++ {
			if step%(steps/2) == 0 {
				for i := range model {
					ord[i], model[i] = g.Empty(), nil
				}
			}
			set := rng.Intn(sets)
			m := model[set]
			switch op := rng.Intn(8); {
			case op < 4 || len(m) == 0:
				w := g.Claim(&ord[set])
				if len(m) == ways {
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
				g.Touch(&ord[set], w)
				m = append(naiveSet{w}, m.remove(w)...)
			default:
				w := m[rng.Intn(len(m))]
				g.Drop(&ord[set], w)
				m = m.remove(w)
			}
			model[set] = m
		}
	}
}

// TestDroppedWaysClaimedFirst checks the invariant that lets the kernel
// keep no count of valid ways: after k Drops, the next k Claims return exactly the
// dropped ways, the most recently dropped (the LRU-most) first, before
// any valid way is evicted; the Claim after them evicts the LRU valid
// way.
func TestDroppedWaysClaimedFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= MaxWays; ways++ {
		for k := 1; k <= ways; k++ {
			g := New(ways)
			o := g.Empty()
			var m naiveSet
			for i := 0; i < ways; i++ {
				m = append(naiveSet{g.Claim(&o)}, m...)
			}
			for i := 0; i < 3*ways; i++ {
				w := m[rng.Intn(len(m))]
				g.Touch(&o, w)
				m = append(naiveSet{w}, m.remove(w)...)
			}
			var dropped []int
			for i := 0; i < k; i++ {
				w := m[rng.Intn(len(m))]
				g.Drop(&o, w)
				m = m.remove(w)
				dropped = append(dropped, w)
			}
			for i := k - 1; i >= 0; i-- {
				if w := g.Claim(&o); w != dropped[i] {
					t.Fatalf("ways=%d k=%d: Claim %d returned way %d, want dropped way %d (dropped %v)", ways, k, k-1-i, w, dropped[i], dropped)
				}
				m = append(naiveSet{dropped[i]}, m...)
			}
			if w, want := g.Claim(&o), m[len(m)-1]; w != want {
				t.Fatalf("ways=%d k=%d: Claim after the dropped ways returned %d, want LRU way %d", ways, k, w, want)
			}
		}
	}
}
