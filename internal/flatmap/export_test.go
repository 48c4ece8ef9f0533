package flatmap

// Observation points the tests read and production does not need.

// Range calls f for every entry until f returns false. Mutating the map
// during iteration is not supported.
func (m *Map[V]) Range(f func(k uint64, v V) bool) {
	for i, kk := range m.keys {
		if kk != emptyKey && !f(kk, m.vals[i]) {
			return
		}
	}
}
