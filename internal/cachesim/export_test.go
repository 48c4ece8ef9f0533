package cachesim

// Observation points the tests read and production does not need.

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	// Misses is derived rather than counted: the install path is the
	// hottest code in the simulator and every removable store matters.
	s.Misses = s.Accesses - s.Hits
	return s
}
