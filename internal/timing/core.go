package timing

import (
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// schedState is one warp scheduler's persistent state: its candidate list
// and round-robin pointer. The candidate list is maintained incrementally
// as CTAs arrive and retire instead of being re-gathered (and reallocated)
// every cycle.
type schedState struct {
	cands []*warpCtx
	rr    int
}

type ctaSlot struct {
	cta   *exec.CTA
	run   *gridRun // resident grid this CTA belongs to
	warps []*warpCtx
	done  bool
}

// smCore is one streaming multiprocessor. All of its fields are owned by
// the core: during the parallel issue stage exactly one worker touches a
// given core, and the coordinator only reads the per-cycle outputs between
// phase barriers. Shared-system traffic (L2/DRAM partitions) is never
// touched here; it is queued in memQ and serviced by the memory stage in a
// canonical order, which is what makes the simulation deterministic for
// any worker count.
type smCore struct {
	id  int
	eng *Engine
	l1  *cache.Cache

	slots  []*ctaSlot
	scheds []schedState

	// occupancy bookkeeping for the multi-grid dispatcher: warp contexts
	// and shared-memory bytes held by resident CTAs of every grid.
	warpsUsed int
	smemUsed  int

	// lastMissDone approximates MSHR-full retry latency.
	lastMissDone uint64

	stats *Stats         // per-core shard, merged at drain boundaries
	cov   *exec.Coverage // per-core functional coverage shard
	info  exec.StepInfo  // the step in flight, filled in place by the interpreter

	// runInstrs shards warp-instruction counts by resident-grid id so
	// per-kernel stats stay attributable while several grids share the
	// core; sized by the engine at the start of every drain.
	runInstrs []uint64

	// per-cycle outputs, read by the coordinator between phase barriers
	issuedAny    bool
	nextAt       uint64
	retiredSlots []*ctaSlot
	err          error
	errRunID     int

	memQ  []memRequest // memory-stage requests issued this cycle, in issue order
	atomQ []*warpCtx   // atomics deferred to the coordinator's sequential drain

	segScratch []uint64 // coalescer scratch, reused across instructions
}

func newCore(id int, e *Engine, l1 *cache.Cache) *smCore {
	c := &smCore{
		id: id, eng: e, l1: l1,
		scheds: make([]schedState, e.cfg.SchedulersPerSM),
		stats:  newStats(e.cfg),
		cov:    exec.NewCoverage(),
	}
	return c
}

// addCTA installs a dispatched CTA, distributing its warps across the
// schedulers (warp i goes to scheduler i mod S, like GPGPU-Sim's "lrr"
// distribution).
func (c *smCore) addCTA(slot *ctaSlot) {
	c.slots = append(c.slots, slot)
	c.warpsUsed += len(slot.warps)
	if slot.run != nil {
		c.smemUsed += slot.run.smemPerCTA
	}
	for wi, w := range slot.warps {
		sc := &c.scheds[wi%len(c.scheds)]
		sc.cands = append(sc.cands, w)
	}
}

// removeCTA compacts the retired CTA's warps out of every scheduler's
// candidate list in place, preserving relative order (no reallocation).
func (c *smCore) removeCTA(slot *ctaSlot) {
	for si := range c.scheds {
		sc := &c.scheds[si]
		keep := sc.cands[:0]
		for _, w := range sc.cands {
			if w.cta != slot.cta {
				keep = append(keep, w)
			}
		}
		// clear the tail so retired warp contexts can be collected
		for i := len(keep); i < len(sc.cands); i++ {
			sc.cands[i] = nil
		}
		sc.cands = keep
		if len(keep) > 0 {
			sc.rr %= len(keep)
		} else {
			sc.rr = 0
		}
	}
}

// releaseBatchRefs drops the batch-lifetime references a core's reusable
// per-cycle buffers keep beyond their logical length: retiredSlots holds
// the last cycle's retired ctaSlots (whose warps pin their CTAs and
// grid), slots' backing array can keep a stale tail after the in-place
// retirement compaction, and memQ/atomQ entries point at warp contexts.
// Without this, a drained batch stays pinned in memory until the next
// drain happens to overwrite the same indices. Called at every batch
// boundary (releaseQueue and abortBatch).
func (c *smCore) releaseBatchRefs() {
	rs := c.retiredSlots[:cap(c.retiredSlots)]
	for i := range rs {
		rs[i] = nil
	}
	c.retiredSlots = c.retiredSlots[:0]
	sl := c.slots[len(c.slots):cap(c.slots)]
	for i := range sl {
		sl[i] = nil
	}
	mq := c.memQ[:cap(c.memQ)]
	for i := range mq {
		mq[i].w = nil
		mq[i].in = nil
	}
	c.memQ = c.memQ[:0]
	aq := c.atomQ[:cap(c.atomQ)]
	for i := range aq {
		aq[i] = nil
	}
	c.atomQ = c.atomQ[:0]
}

// stageIssue advances the core by one cycle: every scheduler picks at most
// one ready warp and issues it. This is the parallel stage; it touches only
// core-owned state (plus the functional machine, which is safe for
// concurrent per-core stepping). Memory-system traffic and atomics are
// queued for the ordered phases that follow.
func (c *smCore) stageIssue(m *exec.Machine, now uint64) {
	c.issuedAny = false
	c.nextAt = ^uint64(0)
	c.retiredSlots = c.retiredSlots[:0]
	c.err = nil
	c.errRunID = -1
	c.memQ = c.memQ[:0]
	c.atomQ = c.atomQ[:0]

	for sched := range c.scheds {
		c.stepScheduler(m, sched, now)
		if c.err != nil {
			return
		}
	}

	// retire finished CTAs, release barriers
	for si := 0; si < len(c.slots); si++ {
		s := c.slots[si]
		s.cta.ReleaseBarrier()
		if !s.done && s.cta.Done() {
			s.done = true
			c.retiredSlots = append(c.retiredSlots, s)
			c.warpsUsed -= len(s.warps)
			if s.run != nil {
				c.smemUsed -= s.run.smemPerCTA
			}
			c.slots = append(c.slots[:si], c.slots[si+1:]...)
			si--
			c.removeCTA(s)
		}
	}
}

func (c *smCore) stepScheduler(m *exec.Machine, sched int, now uint64) {
	st := &c.scheds[sched]
	cands := st.cands
	if len(cands) == 0 {
		c.stats.noteStall(c.id, now, stallIdle)
		return
	}
	issued := false
	live := 0
	sawData, sawBarrier, sawMem := false, false, false
	start := st.rr
	for k := 0; k < len(cands); k++ {
		w := cands[(start+k)%len(cands)]
		if w.warp.Done {
			continue
		}
		live++
		if w.warp.AtBarrier {
			sawBarrier = true
			continue
		}
		if w.minIssueAt > now {
			sawMem = true
			if w.minIssueAt < c.nextAt {
				c.nextAt = w.minIssueAt
			}
			continue
		}
		in := m.PeekWarp(w.cta, w.warp)
		if in == nil {
			// will retire on next step; issue it to make progress
			if err := m.StepWarpCov(w.cta, w.warp, c.cov, &c.info); err != nil {
				c.err = err
				c.errRunID = w.runID
				return
			}
			issued = true
			st.rr = (start + k + 1) % len(cands)
			break
		}
		if rdy, at := w.srcReady(in, now); !rdy {
			sawData = true
			if at < c.nextAt {
				c.nextAt = at
			}
			continue
		}
		if in.Op == ptx.OpAtom {
			// Atomics read-modify-write memory that other cores may touch
			// in the same cycle. Defer both the functional execution and
			// the timing to the coordinator's sequential drain so the
			// interleaving is identical for every worker count.
			c.atomQ = append(c.atomQ, w)
			issued = true
			st.rr = (start + k + 1) % len(cands)
			break
		}
		if err := c.issue(m, w, now); err != nil {
			c.err = err
			c.errRunID = w.runID
			return
		}
		issued = true
		st.rr = (start + k + 1) % len(cands)
		break
	}
	if issued {
		c.issuedAny = true
		return
	}
	switch {
	case live == 0:
		c.stats.noteStall(c.id, now, stallIdle)
	case sawBarrier:
		c.stats.noteStall(c.id, now, stallBarrier)
	case sawData:
		c.stats.noteStall(c.id, now, stallData)
	case sawMem:
		c.stats.noteStall(c.id, now, stallMem)
	default:
		c.stats.noteStall(c.id, now, stallIdle)
	}
}

// issue executes one warp instruction functionally and models its timing.
// It runs inside the parallel issue stage for ordinary instructions and
// inside the coordinator's sequential drain for atomics.
func (c *smCore) issue(m *exec.Machine, w *warpCtx, now uint64) error {
	e := c.eng
	info := &c.info
	if err := m.StepWarpCov(w.cta, w.warp, c.cov, info); err != nil {
		return err
	}
	lanes := popcount(info.ActiveMask)
	c.stats.noteIssue(c.id, now, info, lanes)
	if w.runID >= 0 && w.runID < len(c.runInstrs) {
		c.runInstrs[w.runID]++
	}

	if info.Instr == nil || info.Barrier || info.WarpDone {
		return nil
	}
	in := info.Instr

	if !info.IsMem {
		lat, sfu := latencyClass(&e.cfg, in)
		_ = sfu
		w.markDst(in, now+uint64(lat))
		return nil
	}

	switch info.Space {
	case ptx.SpaceShared:
		conflict := sharedConflictDegree(info)
		lat := uint64(e.cfg.SharedLat + (conflict-1)*2)
		if info.IsStore {
			w.minIssueAt = now + uint64(conflict) // port serialization
		} else {
			w.markDst(in, now+lat)
		}
		c.stats.SharedAccesses++
	case ptx.SpaceLocal, ptx.SpaceGlobal, ptx.SpaceConst, ptx.SpaceNone:
		c.memIssue(info, w, now)
	case ptx.SpaceTex:
		// texture fetch: modelled as an L1/texture-cache hit latency
		w.markDst(in, now+uint64(e.cfg.L1HitLat))
		c.stats.TextureAccesses++
	case ptx.SpaceParam:
		w.markDst(in, now+uint64(e.cfg.ALULat))
	}
	return nil
}

// sharedConflictDegree computes the worst-case bank conflict among active
// lanes (32 banks of 4-byte words).
func sharedConflictDegree(info *exec.StepInfo) int {
	var counts [32]int
	var seen [32]uint64
	max := 1
	for l := 0; l < exec.WarpSize; l++ {
		if info.ActiveMask&(1<<l) == 0 {
			continue
		}
		bank := (info.Addrs[l] / 4) % 32
		word := info.Addrs[l] / 4
		// broadcast: same word does not conflict
		if counts[bank] > 0 && seen[bank] == word {
			continue
		}
		counts[bank]++
		seen[bank] = word
		if counts[bank] > max {
			max = counts[bank]
		}
	}
	return max
}
