// Package flatmap provides an open-addressing hash map keyed by packed
// uint64 page keys, used on the simulator's per-access paths in place of
// Go's general map: the runtime map's hashed-key flexibility costs an
// indirect hash call plus group probing per operation, which profiles as
// several percent of a simulation run. Keys here are already
// well-distributed small integers, so one Fibonacci multiply picks the
// probe start and linear probing does the rest over a single flat array
// — no tombstones (deletion backward-shifts the cluster), no per-entry
// allocation.
package flatmap

// emptyKey marks a vacant slot. Packed page keys are VPN<<16|PID with
// VPN bounded by the RPT's 40-bit field, so all-ones can never collide
// with a real key.
const emptyKey = ^uint64(0)

// fib is 2^64/φ, the Fibonacci hashing multiplier.
const fib = 0x9E3779B97F4A7C15

// Map is a flat hash map from packed uint64 keys to values of type V.
// The zero Map is not usable; call New.
type Map[V any] struct {
	keys  []uint64
	vals  []V
	mask  uint64
	shift uint
	n     int
}

// New builds a map pre-sized for about capHint entries.
func New[V any](capHint int) *Map[V] {
	size := 8
	for size*3 < capHint*4 { // keep the initial load factor under 3/4
		size *= 2
	}
	m := &Map[V]{}
	m.init(size)
	return m
}

func (m *Map[V]) init(size int) {
	m.keys = make([]uint64, size)
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	m.vals = make([]V, size)
	m.mask = uint64(size - 1)
	m.shift = 64 - uint(trailingLog2(size))
	m.n = 0
}

func trailingLog2(size int) int {
	l := 0
	for s := size; s > 1; s >>= 1 {
		l++
	}
	return l
}

// home is the probe start for key k.
func (m *Map[V]) home(k uint64) uint64 { return (k * fib) >> m.shift }

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored for k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			return m.vals[i], true
		}
		if kk == emptyKey {
			var zero V
			return zero, false
		}
		i = (i + 1) & m.mask
	}
}

// Ptr returns a pointer to k's value slot for in-place mutation, or nil
// when k is absent. The pointer is invalidated by the next Put or
// Delete; callers must use it immediately and not retain it.
func (m *Map[V]) Ptr(k uint64) *V {
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			return &m.vals[i]
		}
		if kk == emptyKey {
			return nil
		}
		i = (i + 1) & m.mask
	}
}

// Has reports whether k is present.
func (m *Map[V]) Has(k uint64) bool {
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			return true
		}
		if kk == emptyKey {
			return false
		}
		i = (i + 1) & m.mask
	}
}

// Put stores v under k, replacing any existing value.
func (m *Map[V]) Put(k uint64, v V) {
	if (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
	}
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == k {
			m.vals[i] = v
			return
		}
		if kk == emptyKey {
			m.keys[i] = k
			m.vals[i] = v
			m.n++
			return
		}
		i = (i + 1) & m.mask
	}
}

// Delete removes k, reporting whether it was present. The probe cluster
// is compacted in place (backward-shift deletion), so lookups never pay
// for tombstones.
func (m *Map[V]) Delete(k uint64) bool {
	i := m.home(k)
	for {
		kk := m.keys[i]
		if kk == emptyKey {
			return false
		}
		if kk == k {
			break
		}
		i = (i + 1) & m.mask
	}
	var zero V
	for {
		m.keys[i] = emptyKey
		m.vals[i] = zero
		j := i
		for {
			j = (j + 1) & m.mask
			kj := m.keys[j]
			if kj == emptyKey {
				m.n--
				return true
			}
			// kj may fill the hole only if its home position does not sit
			// inside the gap (i, j] — otherwise moving it would break its
			// own probe chain.
			if (j-m.home(kj))&m.mask >= (j-i)&m.mask {
				m.keys[i] = kj
				m.vals[i] = m.vals[j]
				i = j
				break
			}
		}
	}
}

func (m *Map[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.init(2 * len(oldKeys))
	for i, kk := range oldKeys {
		if kk != emptyKey {
			m.Put(kk, oldVals[i])
		}
	}
}
