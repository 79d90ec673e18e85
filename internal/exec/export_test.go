package exec

// SetWarpInstrCeiling lowers a machine's runaway guard (maxWarpInstrs) so
// a test can trip it in microseconds. A test seam, not a knob.
func SetWarpInstrCeiling(m *Machine, n int64) { m.warpCeiling = n }
