package timing

// StallTotals returns the whole-run W0 bucket sums in StallNames order, so
// the external golden tests can pin stall attribution to absolute values.
func StallTotals(s *Stats) [numStallKinds]uint64 {
	var out [numStallKinds]uint64
	for k := range s.stalls {
		for _, v := range s.stalls[k] {
			out[k] += v
		}
	}
	return out
}

// ReadinessEvals sums the cores' scoreboard-evaluation counters over the
// engine's lifetime: the issue stage's deterministic unit of work.
func ReadinessEvals(e *Engine) uint64 {
	var n uint64
	for _, c := range e.cores {
		n += c.readinessEvals
	}
	return n
}
