package timing

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

// MemCounters is one kernel's (or one partition shard's) view of the
// shared memory system: L2 outcomes, DRAM demand traffic and row-buffer
// locality, and the cycles its segments spent stalled on partition
// ingress/MSHR/port reservations. Addition is commutative, so shards can
// be merged in any order.
type MemCounters struct {
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64 // demand misses sent to DRAM (incl. MSHR-bypass)
	DRAMAccesses uint64
	DRAMRowHits  uint64
	StallCycles  uint64 // ingress/port/MSHR reservation waits, summed over segments
	SegCycles    uint64 // issue-to-response latency, summed over serviced segments
	SegServed    uint64 // partition-serviced segment count
}

func (m *MemCounters) add(o MemCounters) {
	m.L2Accesses += o.L2Accesses
	m.L2Hits += o.L2Hits
	m.L2Misses += o.L2Misses
	m.DRAMAccesses += o.DRAMAccesses
	m.DRAMRowHits += o.DRAMRowHits
	m.StallCycles += o.StallCycles
	m.SegCycles += o.SegCycles
	m.SegServed += o.SegServed
}

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

	Instructions uint64 // warp instructions committed
	ThreadInstrs uint64 // lane-instructions committed

	ALUOps          uint64
	SFUOps          uint64
	L1Accesses      uint64
	L2Accesses      uint64
	L2Hits          uint64
	L2Misses        uint64
	L2Writebacks    uint64 // dirty L2 evictions turned into DRAM write traffic
	DRAMAccesses    uint64
	DRAMRowHits     uint64
	NoCFlits        uint64
	SharedAccesses  uint64
	TextureAccesses uint64
	MemInstructions uint64
	MemSegments     uint64
	MSHRFull        uint64
	IdleSlotCycles  uint64

	// IngressStallCycles sums, over all partition-serviced segments, the
	// cycles each spent waiting on a partition ingress slot, L2 port or
	// L2 MSHR reservation (the bandwidth-aware hierarchy's back-pressure).
	IngressStallCycles uint64
	// SegCycles/SegServed track total and count of partition-serviced
	// segment latencies (issue to response), for AvgSegmentLatency.
	SegCycles uint64
	SegServed uint64

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

func newStats(cfg Config) *Stats {
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
// model sees it as SFU work (exec.IssueInfo.SFU) or ALU work.
func (s *Stats) noteIssue(core int, cycle uint64, sfu bool, lanes int) {
	s.Instructions++
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

func (s *Stats) noteStall(core int, cycle uint64, k stallKind) {
	if k == stallIdle {
		s.IdleSlotCycles++
	}
	if s.interval == 0 {
		return
	}
	b := cycle/s.interval - s.base
	if b >= uint64(len(s.stalls[k])) {
		s.stalls[k] = grow(s.stalls[k], b)
	}
	s.stalls[k][b]++
}

// addIdleBulk charges fast-forwarded cycles to the memory-stall category
// (the machine was waiting on outstanding memory when it fast-forwards).
func (s *Stats) addIdleBulk(from, span uint64, cfg Config) {
	slots := span * uint64(cfg.NumSMs*cfg.SchedulersPerSM)
	s.IdleSlotCycles += slots
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
		s.stalls[stallMem][b] += width * uint64(cfg.NumSMs*cfg.SchedulersPerSM)
	}
}

// NewStats returns an empty engine-shaped accumulator for cfg, for
// callers that fold several engines' statistics into one node-wide view
// (the multi-GPU driver merges per-device stats in rank order).
func NewStats(cfg Config) *Stats { return newStats(cfg) }

// merge adds another Stats' counters and time series into s. The engine
// gives each SM core its own shard so the parallel issue stage never
// contends on (or races over) the shared accumulators; shards are merged
// here at kernel boundaries. Addition is commutative, so the merged result
// is independent of worker scheduling.
func (s *Stats) merge(o *Stats) {
	s.Instructions += o.Instructions
	s.ThreadInstrs += o.ThreadInstrs
	s.ALUOps += o.ALUOps
	s.SFUOps += o.SFUOps
	s.L1Accesses += o.L1Accesses
	s.L2Accesses += o.L2Accesses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.L2Writebacks += o.L2Writebacks
	s.DRAMAccesses += o.DRAMAccesses
	s.DRAMRowHits += o.DRAMRowHits
	s.NoCFlits += o.NoCFlits
	s.SharedAccesses += o.SharedAccesses
	s.TextureAccesses += o.TextureAccesses
	s.MemInstructions += o.MemInstructions
	s.MemSegments += o.MemSegments
	s.MSHRFull += o.MSHRFull
	s.IdleSlotCycles += o.IdleSlotCycles
	s.IngressStallCycles += o.IngressStallCycles
	s.SegCycles += o.SegCycles
	s.SegServed += o.SegServed
	s.FastForwardedCycles += o.FastForwardedCycles
	s.ReplayHits += o.ReplayHits
	s.ReplayMisses += o.ReplayMisses
	s.ReplayResamples += o.ReplayResamples
	s.ReplayedCycles += o.ReplayedCycles
	s.DetailedKernelCycles += o.DetailedKernelCycles
	s.ReplayDriftCycles += o.ReplayDriftCycles
	s.ReplayMemoApplied += o.ReplayMemoApplied
	s.ReplayBatchHits += o.ReplayBatchHits
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
	interval, numSMs, scheds := s.interval, s.numSMs, s.scheds
	coreIPC, laneCount, stalls := s.coreIPC, s.laneCount, s.stalls
	*s = Stats{interval: interval, numSMs: numSMs, scheds: scheds}
	for i := range coreIPC {
		coreIPC[i] = coreIPC[i][:0]
	}
	for i := range laneCount {
		laneCount[i] = laneCount[i][:0]
	}
	for i := range stalls {
		stalls[i] = stalls[i][:0]
	}
	s.coreIPC, s.laneCount, s.stalls = coreIPC, laneCount, stalls
}

// AvgSegmentLatency returns the mean issue-to-response latency of the
// segments the partitions serviced — the load-dependent number the
// bandwidth-aware hierarchy exists to produce (a lightly loaded machine
// sees raw L2/DRAM latency; a saturated one sees queueing on top).
func (s *Stats) AvgSegmentLatency() float64 {
	if s.SegServed == 0 {
		return 0
	}
	return float64(s.SegCycles) / float64(s.SegServed)
}

// ReplayCoverage returns the fraction of kernel launches retired from
// the replay cache: hits / (hits + misses + resamples). 0 when replay
// is disabled or no kernel has been launched.
func (s *Stats) ReplayCoverage() float64 {
	total := s.ReplayHits + s.ReplayMisses + s.ReplayResamples
	if total == 0 {
		return 0
	}
	return float64(s.ReplayHits) / float64(total)
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
func (s *Stats) TotalIPC(cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(cycles)
}
