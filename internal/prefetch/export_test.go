package prefetch

// Observation points the tests read and production does not need.

// Leader names the component the arbiter currently favours — an
// observability hook for tests and debugging, not part of the
// Prefetcher contract.
func (c *Chimera) Leader() string {
	switch c.leader() {
	case chimStride:
		return "stride"
	case chimSpatial:
		return "spatial"
	default:
		return "history"
	}
}
