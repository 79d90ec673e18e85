package timing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Done reports whether the operation has retired.
func (t *Ticket) Done() bool { return t.done }

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

// SeriesDigest hashes every per-bucket series of s — the stall kinds, the
// per-core IPC and the lane counts, lengths included — so a golden can pin
// which bucket each slot landed in, not only the totals.
func SeriesDigest(s *Stats) string {
	h := sha256.New()
	put := func(series []uint64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(series))))
		for _, v := range series {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	for _, st := range s.stalls {
		put(st)
	}
	for _, c := range s.coreIPC {
		put(c)
	}
	for _, lc := range s.laneCount {
		put(lc)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
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

// SchedulerSteps sums the cores' scheduler-step counters over the engine's
// lifetime: how many times a scheduler was stepped, which a scheduler with
// nothing due never is.
func SchedulerSteps(e *Engine) uint64 {
	var n uint64
	for _, c := range e.cores {
		n += c.schedSteps
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

// OrphanL2Miss opens an L2 miss on addr's line that no segment of the next
// batch issues, as if lineDone had lost the parent miss's entry: the
// batch's first access to the line merges into it and finds no data-ready
// time, which the memory stage reports as a failure (partitionFault). The
// returned func fills the line, closing the miss.
func OrphanL2Miss(e *Engine, addr uint64) (fill func()) {
	p := e.parts[e.partOf(addr)]
	p.l2.Access(addr, false)
	return func() { p.l2.Fill(addr, false) }
}
