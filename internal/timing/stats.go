package timing

import "repro/internal/cudart"

type stallKind int

const (
	stallIdle stallKind = iota
	stallData
	stallBarrier
	stallMem
	numStallKinds
)

// StallNames labels the warp-issue breakdown categories (W0 variants in
// the AerialVision warp plots).
var StallNames = [numStallKinds]string{"W0_idle", "W0_data_hazard", "W0_barrier", "W0_memory"}

// Stats accumulates engine-wide counters and AerialVision time series.
type Stats struct {
	interval uint64
	numSMs   int
	scheds   int
	// base is the bucket offset of index 0 in the series below. The
	// engine-wide accumulator keeps base 0 (absolute buckets); per-core
	// shards are rebased to the kernel's start bucket each launch so a
	// shard's series — and the cost of merging it — stays proportional
	// to the kernel's own length, not to the engine's total run length.
	base uint64

	// Folded from the per-kernel records when a kernel retires, detailed
	// or replayed (add): the sum of every kernel's memory-system record,
	// and the warp instructions committed.
	cudart.MemCounters
	Instructions uint64

	// Written by the SM cores, each into its own shard (a Stats of which
	// only this block and the series are ever set), merged at batch
	// boundaries. Replay leaves them flat.
	ThreadInstrs    uint64 // lane-instructions committed
	ALUOps          uint64
	SFUOps          uint64
	L1Accesses      uint64
	NoCFlits        uint64
	SharedAccesses  uint64
	TextureAccesses uint64
	MemInstructions uint64
	MemSegments     uint64
	MSHRFull        uint64
	IdleSlotCycles  uint64

	// L2Writebacks counts dirty L2 evictions turned into DRAM write
	// traffic. The one partition counter outside the per-kernel record: a
	// victim line is some earlier kernel's, not the evicting one's, and
	// replay leaves the count flat like the cores' counters above.
	L2Writebacks uint64

	// FastForwardedCycles counts cycles the drain loop's idle-cycle
	// fast-forward bridged instead of ticking (machine fully stalled on
	// memory and/or the copy engine). They are already charged to the
	// stall series and IdleSlotCycles — this counter only reports how
	// much simulated time the event jump skipped. Purely a wall-clock
	// optimisation: modelled cycle counts are identical either way.
	FastForwardedCycles uint64

	// Hybrid replay counters (Config.ReplayEnabled, see replay.go).
	// ReplayHits counts launches retired from a memoized entry;
	// ReplayMisses counts launches simulated in detail because no entry
	// existed; ReplayResamples counts hits deliberately re-run in detail
	// by the ReplayResampleEvery cadence. ReplayedCycles sums the
	// memoized durations of replayed launches; DetailedKernelCycles sums
	// the durations of kernels simulated in detail (always maintained,
	// so the two split total kernel time when replay is on).
	// ReplayDriftCycles sums |resampled − memoized| over re-samples —
	// the measured error of the replay approximation. ReplayMemoApplied
	// counts the hits whose functional effect came from a validated
	// write-set memo (exec.GridMemo) instead of re-interpretation — the
	// wall-clock fast path; the remaining hits re-executed functionally.
	// ReplayBatchHits counts the drain batches that retired as one
	// memoized unit (replayBatch); their launches are in ReplayHits and
	// ReplayMemoApplied like any other, so this one only says how the
	// hits were served.
	ReplayHits           uint64
	ReplayMisses         uint64
	ReplayResamples      uint64
	ReplayedCycles       uint64
	DetailedKernelCycles uint64
	ReplayDriftCycles    uint64
	ReplayMemoApplied    uint64
	ReplayBatchHits      uint64

	coreIPC   [][]uint64 // [core][bucket] warp instructions issued
	laneCount [][]uint64 // [active lanes 1..32 -> idx 0..31][bucket]
	stalls    [numStallKinds][]uint64
}

// NewStats returns an empty engine-shaped accumulator for cfg: the
// engine's own, a core's shard, or a caller's that folds several engines'
// statistics into one node-wide view.
func NewStats(cfg Config) *Stats {
	s := &Stats{
		interval: uint64(cfg.SampleInterval),
		numSMs:   cfg.NumSMs,
		scheds:   cfg.SchedulersPerSM,
		coreIPC:  make([][]uint64, cfg.NumSMs),
	}
	s.laneCount = make([][]uint64, 32)
	return s
}

func grow(s []uint64, idx uint64) []uint64 {
	for uint64(len(s)) <= idx {
		s = append(s, 0)
	}
	return s
}

// noteIssue counts one issued warp instruction; sfu says whether the power
// model sees it as SFU work (exec.IssueTable.SFU) or ALU work.
func (s *Stats) noteIssue(core int, cycle uint64, sfu bool, lanes int) {
	s.ThreadInstrs += uint64(lanes)
	if sfu {
		s.SFUOps += uint64(lanes)
	} else {
		s.ALUOps += uint64(lanes)
	}
	if s.interval == 0 {
		return
	}
	b := cycle/s.interval - s.base
	s.coreIPC[core] = grow(s.coreIPC[core], b)
	s.coreIPC[core][b]++
	if lanes >= 1 {
		idx := lanes - 1
		s.laneCount[idx] = grow(s.laneCount[idx], b)
		s.laneCount[idx][b]++
	}
}

// addStall charges one scheduler's quiet interval — span cycles from
// cycle from, none of which it issued in — to stall kind k, split at the
// sample-bucket edges; idle slots also count in IdleSlotCycles. The one
// charge of the scheduler ledger (schedState.settle).
func (s *Stats) addStall(k stallKind, from, span uint64) {
	if k == stallIdle {
		s.IdleSlotCycles += span
	}
	if s.interval == 0 {
		return
	}
	for c, end := from, from+span; c < end; {
		b := c / s.interval
		w := min((b+1)*s.interval, end) - c
		s.stalls[k] = grow(s.stalls[k], b-s.base)
		s.stalls[k][b-s.base] += w
		c += w
	}
}

// addIdleBulk charges fast-forwarded cycles to the memory-stall category
// (the machine was waiting on outstanding memory when it fast-forwards).
//
// Known defect, kept on purpose (ROADMAP open item 19(b)): the loop steps
// by the sample interval instead of to the next bucket edge, so a span
// that starts inside a bucket and crosses several is under-charged in
// the series (IdleSlotCycles is right). Stepping like addStall fixes it
// and moves every w0_memory pin; that is the item's deliberate -update.
func (s *Stats) addIdleBulk(from, span uint64) {
	s.IdleSlotCycles += span * uint64(s.numSMs*s.scheds)
	if s.interval == 0 {
		return
	}
	for c := from; c < from+span; c += s.interval {
		b := c / s.interval
		width := s.interval - c%s.interval
		if c+width > from+span {
			width = from + span - c
		}
		s.stalls[stallMem] = grow(s.stalls[stallMem], b)
		s.stalls[stallMem][b] += width * uint64(s.numSMs*s.scheds)
	}
}

// add folds one kernel's record into the totals: what a detailed
// retirement read out of the shards, or what a replay entry memoized.
func (s *Stats) add(instrs uint64, mem cudart.MemCounters) {
	s.Instructions += instrs
	s.MemCounters.Add(mem)
}

// merge adds a core's shard — the counters a core writes and its time
// series — into s. The engine gives each SM core its own shard so the
// parallel issue stage never contends on (or races over) the shared
// accumulators; shards are merged here at batch boundaries. Addition is
// commutative, so the merged result is independent of worker scheduling.
func (s *Stats) merge(o *Stats) {
	s.ThreadInstrs += o.ThreadInstrs
	s.ALUOps += o.ALUOps
	s.SFUOps += o.SFUOps
	s.L1Accesses += o.L1Accesses
	s.NoCFlits += o.NoCFlits
	s.SharedAccesses += o.SharedAccesses
	s.TextureAccesses += o.TextureAccesses
	s.MemInstructions += o.MemInstructions
	s.MemSegments += o.MemSegments
	s.MSHRFull += o.MSHRFull
	s.IdleSlotCycles += o.IdleSlotCycles
	for c := range o.coreIPC {
		s.coreIPC[c] = mergeSeries(s.coreIPC[c], o.coreIPC[c], o.base)
	}
	for i := range o.laneCount {
		s.laneCount[i] = mergeSeries(s.laneCount[i], o.laneCount[i], o.base)
	}
	for k := range o.stalls {
		s.stalls[k] = mergeSeries(s.stalls[k], o.stalls[k], o.base)
	}
}

// mergeSeries adds src (whose index 0 is bucket `base`) into dst (absolute
// buckets).
func mergeSeries(dst, src []uint64, base uint64) []uint64 {
	if len(src) == 0 {
		return dst
	}
	dst = grow(dst, base+uint64(len(src)-1))
	for i, v := range src {
		dst[base+uint64(i)] += v
	}
	return dst
}

// rebase marks the kernel-start bucket of a per-core shard so its series
// indices are kernel-relative.
func (s *Stats) rebase(cycle uint64) {
	if s.interval > 0 {
		s.base = cycle / s.interval
	}
}

// reset clears a shard for reuse, keeping allocated series storage.
func (s *Stats) reset() {
	for i := range s.coreIPC {
		s.coreIPC[i] = s.coreIPC[i][:0]
	}
	for i := range s.laneCount {
		s.laneCount[i] = s.laneCount[i][:0]
	}
	for i := range s.stalls {
		s.stalls[i] = s.stalls[i][:0]
	}
	*s = Stats{interval: s.interval, numSMs: s.numSMs, scheds: s.scheds,
		coreIPC: s.coreIPC, laneCount: s.laneCount, stalls: s.stalls}
}

// AvgSegmentLatency returns the mean issue-to-response latency of the
// segments the partitions serviced — the load-dependent number the
// bandwidth-aware hierarchy exists to produce (a lightly loaded machine
// sees raw L2/DRAM latency; a saturated one sees queueing on top).
func (s *Stats) AvgSegmentLatency() float64 { return ratio(s.SegCycles, s.L2Accesses) }

// ReplayCoverage returns the fraction of kernel launches retired from
// the replay cache: hits / (hits + misses + resamples). 0 when replay
// is disabled or no kernel has been launched.
func (s *Stats) ReplayCoverage() float64 {
	return ratio(s.ReplayHits, s.ReplayHits+s.ReplayMisses+s.ReplayResamples)
}

// ratio is num/den, 0 over an empty denominator.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Interval returns the sample bucket width in cycles.
func (s *Stats) Interval() uint64 { return s.interval }

// GlobalIPCSeries returns total warp instructions per bucket across all
// shaders divided by the bucket width (the paper's global IPC plot).
func (s *Stats) GlobalIPCSeries() []float64 {
	n := 0
	for _, c := range s.coreIPC {
		if len(c) > n {
			n = len(c)
		}
	}
	out := make([]float64, n)
	for _, c := range s.coreIPC {
		for i, v := range c {
			out[i] += float64(v)
		}
	}
	for i := range out {
		out[i] /= float64(s.interval)
	}
	return out
}

// ShaderIPCSeries returns per-core instructions per cycle per bucket
// (the paper's shader IPC plot: y-axis is the shader core number).
func (s *Stats) ShaderIPCSeries() [][]float64 {
	out := make([][]float64, len(s.coreIPC))
	for c := range s.coreIPC {
		out[c] = make([]float64, len(s.coreIPC[c]))
		for i, v := range s.coreIPC[c] {
			out[c][i] = float64(v) / float64(s.interval)
		}
	}
	return out
}

// WarpIssueBreakdown returns the warp plot series: first the W0 stall
// categories, then W1..W32 (issued warps by active lane count), per
// bucket, as fractions of issue slots.
func (s *Stats) WarpIssueBreakdown() (names []string, series [][]float64) {
	n := 0
	for _, st := range s.stalls {
		if len(st) > n {
			n = len(st)
		}
	}
	for _, lc := range s.laneCount {
		if len(lc) > n {
			n = len(lc)
		}
	}
	slotsPerBucket := float64(s.interval) * float64(s.numSMs*s.scheds)
	for k := stallKind(0); k < numStallKinds; k++ {
		names = append(names, StallNames[k])
		row := make([]float64, n)
		for i, v := range s.stalls[k] {
			row[i] = float64(v) / slotsPerBucket
		}
		series = append(series, row)
	}
	for lanes := 1; lanes <= 32; lanes++ {
		names = append(names, wName(lanes))
		row := make([]float64, n)
		for i, v := range s.laneCount[lanes-1] {
			row[i] = float64(v) / slotsPerBucket
		}
		series = append(series, row)
	}
	return names, series
}

func wName(lanes int) string {
	const digits = "0123456789"
	if lanes < 10 {
		return "W" + digits[lanes:lanes+1]
	}
	return "W" + digits[lanes/10:lanes/10+1] + digits[lanes%10:lanes%10+1]
}

// TotalIPC returns whole-run warp IPC over the given cycle span.
func (s *Stats) TotalIPC(cycles uint64) float64 { return ratio(s.Instructions, cycles) }
