package rpt

// Observation points the tests read and production does not need.

// DRAMReads returns how many 8-byte entry reads hit DRAM.
func (t *Table) DRAMReads() uint64 { return t.reads }

// DRAMWrites returns how many 8-byte entry writes hit DRAM.
func (t *Table) DRAMWrites() uint64 { return t.writes }

// Len returns how many valid mappings the table holds.
func (t *Table) Len() int { return len(t.entries) }
