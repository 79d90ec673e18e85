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

// SetReplayBatch switches the replay cache's batch rung (replayBatch) on
// or off: with it off every batch takes the per-launch path, the
// reference the rung is tested against. A test seam, not a knob.
func SetReplayBatch(e *Engine, on bool) { e.replay.noBatch = !on }

// ReplayComposes returns how many chains the replay cache has composed.
func ReplayComposes(e *Engine) uint64 { return e.replay.composes }

// ReplayValidatedBytes returns the read-set bytes the engine has handed to
// GridMemo.Matches, per launch or per batch: replay's deterministic unit
// of validation work.
func ReplayValidatedBytes(e *Engine) uint64 { return e.replay.validated }
