package memsim

// Observation points the tests read and production does not need.

// LineInPage returns which of the 64 cachelines of its page the address
// falls in.
func (a PAddr) LineInPage() int { return int((uint64(a) >> LineShift) & (LinesPerPage - 1)) }
