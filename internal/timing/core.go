package timing

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/ptx"
)

type ctaSlot struct {
	cta   *exec.CTA
	run   *gridRun // resident grid this CTA belongs to
	warps []warpCtx
	// check asks the end of this cycle's issue stage to look at the CTA's
	// barrier and at whether it has retired: set when it is placed and
	// when one of its warps hits bar.sync or retires, the only events
	// either answer depends on.
	check bool
	// preloaded marks a checkpoint-restored CTA. Its storage is the
	// caller's, so it is never recycled for a later block of the grid.
	preloaded bool
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

	stats *Stats        // per-core shard (what a core writes: see Stats), merged at drain boundaries
	info  exec.StepInfo // the step in flight, filled in place by the interpreter

	// runInstrs is the counter ledger's instruction half: warp
	// instructions committed per dense per-drain grid id, counted here and
	// nowhere else; runSegs beside it sums their StepInfo.Segments, the
	// hardware oracle's traffic count, which has no engine total. Sized by
	// the engine at the start of every drain, taken out when the kernel
	// retires (Engine.foldRun).
	runInstrs []uint64
	runSegs   []uint64

	// checkSlots: some resident slot has check set.
	checkSlots bool

	// readinessEvals counts scoreboard evaluations (evaluate calls) and
	// schedSteps scheduler steps: the issue stage's deterministic units
	// of work, which tests hold to a small constant per issued
	// instruction.
	readinessEvals uint64
	schedSteps     uint64

	// Whether the engine visits the core at the next cycle: hot says a
	// scheduler holds a re-armed or ready warp (set by addCTA and by the
	// end of stageIssue), nextAt is the earliest pending wakeup, ^0 when
	// none. A core that is neither hot nor has a wakeup due is skipped,
	// and both stay valid while it sleeps.
	hot    bool
	nextAt uint64

	// per-cycle outputs, read by the coordinator between phase barriers
	issuedAny    bool
	retiredSlots []*ctaSlot
	err          error
	errRunID     int
	errSched     int // with err: the scheduler whose issue failed

	memQ  []memRequest // memory-stage requests issued this cycle, in issue order
	atomQ []*warpCtx   // atomics deferred to the coordinator's sequential drain

	segScratch []uint64 // coalescer scratch, reused across instructions
}

func newCore(id int, e *Engine, l1 *cache.Cache) *smCore {
	c := &smCore{
		id: id, eng: e, l1: l1,
		scheds: make([]schedState, e.cfg.SchedulersPerSM),
		stats:  NewStats(e.cfg),
		nextAt: ^uint64(0),
	}
	return c
}

// addCTA installs a dispatched CTA, distributing its warps across the
// schedulers (warp i goes to scheduler i mod S, like GPGPU-Sim's "lrr"
// distribution). Every warp arrives re-armed: its scheduler evaluates it
// at the next pick.
func (c *smCore) addCTA(slot *ctaSlot) {
	c.slots = append(c.slots, slot)
	c.warpsUsed += len(slot.warps)
	c.smemUsed += slot.run.smemPerCTA
	slot.check, c.checkSlots, c.hot = true, true, true
	for wi := range slot.warps {
		c.schedOf(wi).add(&slot.warps[wi])
	}
}

// schedOf returns the scheduler that owns warp wi of any CTA on this core.
func (c *smCore) schedOf(wi int) *schedState { return &c.scheds[wi%len(c.scheds)] }

// removeCTA takes a retired CTA's warps out of every scheduler.
func (c *smCore) removeCTA(slot *ctaSlot) {
	for si := range c.scheds {
		c.scheds[si].remove(slot)
	}
}

// reset empties the core of resident work after an aborted batch: no CTA,
// no candidate, and no ready, re-armed or parked warp survives into the
// next batch.
func (c *smCore) reset() {
	clear(c.slots)
	c.slots = c.slots[:0]
	c.warpsUsed, c.smemUsed = 0, 0
	c.checkSlots, c.hot, c.nextAt = false, false, ^uint64(0)
	for i := range c.scheds {
		c.scheds[i].reset()
	}
	c.err = nil
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
		mq[i].dst = nil
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
//
// The stage is event-driven (scoreboard.go): a stepped cycle costs the
// issues it makes and the wakeups that fall due, not a visit to every
// resident warp, and a scheduler with nothing due is not stepped at all —
// its stall slots are charged in one span when it settles. All scheduler
// state is core-owned and changes only here, in addCTA/removeCTA and in
// reset; issue and applyMem write the scoreboards that the next cycle's
// evaluations read.
func (c *smCore) stageIssue(m *exec.Machine, now uint64) {
	c.issuedAny = false
	c.nextAt = ^uint64(0)
	c.retiredSlots = c.retiredSlots[:0]
	c.err = nil
	c.errRunID = -1
	c.memQ = c.memQ[:0]
	c.atomQ = c.atomQ[:0]

	for i := range c.scheds {
		if sc := &c.scheds[i]; sc.due(now) {
			c.stepScheduler(m, sc, now)
			if c.err != nil {
				c.errSched = i
				return
			}
		}
	}

	// Release barriers and retire finished CTAs, in slot order: two CTAs
	// retiring in one cycle compact the candidate lists (and fold rr) in
	// that order.
	if c.checkSlots {
		c.checkSlots = false
		for si := 0; si < len(c.slots); si++ {
			s := c.slots[si]
			if !s.check {
				continue
			}
			s.check = false
			if s.cta.ReleaseBarrier() {
				for wi := range s.warps {
					if w := &s.warps[wi]; w.state == warpAtBarrier {
						c.schedOf(wi).rearm(w)
					}
				}
			}
			if s.cta.Done() {
				c.retiredSlots = append(c.retiredSlots, s)
				c.warpsUsed -= len(s.warps)
				c.smemUsed -= s.run.smemPerCTA
				c.slots = append(c.slots[:si], c.slots[si+1:]...)
				si--
				c.removeCTA(s)
			}
		}
	}

	// Whether the engine visits the core next cycle, and its next event
	// for the fast-forward. Everything due at or before now was popped
	// above, and a core that re-armed a warp this cycle also issued, so
	// the engine will not read nextAt unless the core goes to sleep.
	c.hot = false
	for i := range c.scheds {
		sc := &c.scheds[i]
		c.hot = c.hot || sc.n[warpRearmed]+sc.n[warpReady] > 0
		if q := sc.wakeQ; len(q) > 0 && q[0].wake < c.nextAt {
			c.nextAt = q[0].wake
		}
	}
}

// stepScheduler is one scheduler's cycle: settle its last quiet interval,
// evaluate the warps whose wakeup fell due and the ones re-armed since the
// last pick, then issue the first ready warp at or after rr (loose
// round-robin), or open a quiet interval with the slot at now.
func (c *smCore) stepScheduler(m *exec.Machine, sc *schedState, now uint64) {
	c.schedSteps++
	sc.settle(c.stats, now)
	for len(sc.wakeQ) > 0 && sc.wakeQ[0].wake <= now {
		c.evaluate(m, sc, sc.popWake(), now)
	}
	for i, w := range sc.rearmed {
		sc.rearmed[i] = nil
		c.evaluate(m, sc, w, now)
	}
	sc.rearmed = sc.rearmed[:0]

	pos := sc.firstReady()
	if pos < 0 {
		sc.kind, sc.from = sc.stallKind(), now
		return
	}
	sc.from = now + 1
	w := sc.cands[pos]
	sc.rr = (pos + 1) % len(sc.cands)
	c.issuedAny = true

	var err error
	switch {
	case w.pc < 0:
		// The step that retires the warp: taken to make progress, not
		// counted as an instruction.
		err = m.StepWarp(w.slot.cta, w.warp, nil, &c.info)
	case w.issue.Atomic(w.pc):
		// Atomics read-modify-write memory that other cores may touch
		// in the same cycle. Defer both the functional execution and
		// the timing to the coordinator's sequential drain so the
		// interleaving is identical for every worker count.
		c.atomQ = append(c.atomQ, w)
		sc.rearm(w)
		return
	default:
		err = c.issue(m, w, now)
	}
	if err != nil {
		c.err = err
		c.errRunID = w.runID
		return
	}
	if c.info.Barrier || w.warp.Done {
		w.slot.check, c.checkSlots = true, true
	}
	if w.warp.Done {
		// Dead now rather than at the next evaluation: its CTA may retire
		// and be recycled before then. Nothing may be left to re-arm the
		// scheduler, so its kind is read off now.
		sc.move(w, warpDead)
		sc.kind = sc.stallKind()
	} else {
		sc.rearm(w)
	}
}

// evaluate decides where warp w stands at cycle now: dead, at a barrier,
// parked until an absolute cycle, or ready. It runs once after the warp
// issues and once more each time something re-arms it; in between nothing
// can change the answer, because only the warp's own issue and applyMem
// write its scoreboard and both land before the next cycle's pick.
func (c *smCore) evaluate(m *exec.Machine, sc *schedState, w *warpCtx, now uint64) {
	c.readinessEvals++
	switch {
	case w.warp.Done:
		sc.move(w, warpDead)
	case w.warp.AtBarrier:
		sc.move(w, warpAtBarrier)
	case w.minIssueAt > now:
		// Parked as a memory stall until minIssueAt; if a source is still
		// busy then, that evaluation re-parks it as a data hazard.
		sc.park(w, warpOnIssue, w.minIssueAt)
	default:
		w.pc = m.PeekPC(w.slot.cta, w.warp)
		if w.pc >= 0 {
			var latest uint64
			for _, r := range w.issue.Src(w.pc) {
				if ready := w.regReady[r]; ready > latest {
					latest = ready
				}
			}
			if latest > now {
				sc.park(w, warpOnData, latest)
				return
			}
		}
		sc.move(w, warpReady)
	}
}

// issue executes one warp instruction functionally and models its timing.
// It runs inside the parallel issue stage for ordinary instructions and
// inside the coordinator's sequential drain for atomics.
func (c *smCore) issue(m *exec.Machine, w *warpCtx, now uint64) error {
	e := c.eng
	info := &c.info
	if err := m.StepWarp(w.slot.cta, w.warp, nil, info); err != nil {
		return err
	}
	// stepScheduler only sends warps with an instruction to execute (the
	// step that merely retires a warp never comes here)
	pc, iss := info.PC, &w.issue
	c.stats.noteIssue(c.id, now, iss.SFU(pc), bits.OnesCount32(info.ActiveMask))
	c.runInstrs[w.runID]++

	if info.Barrier || info.WarpDone {
		return nil
	}

	if !info.IsMem {
		w.markDst(iss.Dst(pc), now+uint64(e.cfg.latency(iss.Lat(pc))))
		return nil
	}
	c.runSegs[w.runID] += uint64(info.Segments())

	switch info.Space {
	case ptx.SpaceShared:
		conflict := sharedConflictDegree(info)
		lat := uint64(e.cfg.SharedLat + (conflict-1)*2)
		if info.IsStore {
			w.minIssueAt = now + uint64(conflict) // port serialization
		} else {
			w.markDst(iss.Dst(pc), now+lat)
		}
		c.stats.SharedAccesses++
	case ptx.SpaceLocal, ptx.SpaceGlobal, ptx.SpaceConst, ptx.SpaceNone:
		c.memIssue(info, w, now)
	case ptx.SpaceTex:
		// texture fetch: modelled as an L1/texture-cache hit latency
		w.markDst(iss.Dst(pc), now+uint64(e.cfg.L1HitLat))
		c.stats.TextureAccesses++
	case ptx.SpaceParam:
		w.markDst(iss.Dst(pc), now+uint64(e.cfg.ALULat))
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
