package hpd

// Observation points the tests read and production does not need.

// Tracked returns how many valid entries the table currently holds.
func (t *Table) Tracked() int {
	n := 0
	for _, p := range t.ppns {
		if p != invalidPPN {
			n++
		}
	}
	return n
}
