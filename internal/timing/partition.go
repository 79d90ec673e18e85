package timing

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cudart"
	"repro/internal/dram"
)

// partition is one memory partition: an L2 slice plus a DRAM channel,
// modelled as a pipelined, bandwidth-aware stage. Contention is expressed
// with absolute-time resource reservations — a partition ingress slot, an
// L2 tag/data port, the L2 MSHR pool, the DRAM channel (bank + shared
// data bus, scheduled FR-FCFS per cycle batch) and a NoC response port —
// so one pass over the cycle's segments still produces final completion
// cycles, and the drain loop's fast-forward invariant (every future event
// is an absolute-cycle scoreboard wakeup or copy end) survives intact.
//
// Ownership contract: all of this state is only ever touched by the
// partition's drain, which the engine runs with at most one worker per
// partition. No locks are needed because the drain walks the cores'
// request queues in a fixed (core id, issue order) traversal, so the
// access sequence seen by the L2 and the channel is the same for every
// worker count — including 1. Anything that would let two workers race on
// a partition, or make the service order depend on scheduling, breaks
// both the race-freedom and the determinism guarantee.
type partition struct {
	id int
	l2 *cache.Cache
	ch *dram.Channel

	// queue holds this cycle's segments, bucketed by the coordinator in
	// canonical order before the drain phase
	queue []*segRequest

	// Absolute-time resource horizons. Each records when the resource
	// next frees; a segment reserving it starts at max(arrival, horizon)
	// and pushes the horizon forward by the configured occupancy. The
	// horizons only ever advance, so no segment can complete before it
	// arrives and fast-forwarded stretches need no special handling.
	ingressFree uint64   // partition ingress slot
	portFree    uint64   // L2 tag/data port
	respFree    uint64   // NoC response port
	mshrFree    []uint64 // L2 MSHR slots: cycle each outstanding miss returns

	// lineDone maps an in-flight miss line to its DRAM data-ready time
	// within the current cycle batch, resolving L2 MissMerged segments
	// against the miss they ride (cleared every drain call — the L2 fill
	// lands in the same batch, so merges never span cycles).
	lineDone map[uint64]uint64

	// per-cycle scratch, reused across drains
	dramReqs []dram.Req  // demand misses handed to the channel
	dramRefs []*dram.Req // pointer view for ServiceBatch
	missSegs []*segRequest
	missSlot []int      // MSHR slot index per miss (-1 = bypass)
	missFill []bool     // install in L2 on response?
	wbReqs   []dram.Req // dirty-eviction writeback traffic
	wbRefs   []*dram.Req
	mergedQ  []*segRequest

	// perKernel is the counter ledger's memory half: one record per dense
	// per-drain grid id, the only place drain counts anything a kernel can
	// be charged with. The engine sizes it at the start of every drain and
	// takes each record out when its kernel retires (Engine.foldRun).
	perKernel []cudart.MemCounters

	// l2Writebacks is the one count kept out of the records (see
	// Stats.L2Writebacks); the engine folds it at batch boundaries.
	l2Writebacks uint64

	// err is a failure of this cycle's drain, charged to kernel errRunID;
	// the engine takes it after the memory stage and aborts the batch
	// (Engine.partitionFault).
	err      error
	errRunID int
}

func newPartition(id int, l2 *cache.Cache, ch *dram.Channel, l2MSHRs int) *partition {
	return &partition{
		id: id, l2: l2, ch: ch,
		mshrFree: make([]uint64, l2MSHRs),
		lineDone: make(map[uint64]uint64),
	}
}

// partOf routes a sector address to its owning partition. Interleaving is
// at L2-line granularity (GPGPU-Sim's address mapping): every sector of
// one L2 line — and the line's fill and writeback — lives in exactly one
// partition. Config.sectorBytes guarantees sectors never straddle an L2
// line, so this routing is total.
func (e *Engine) partOf(addr uint64) int {
	return int(addr/uint64(e.cfg.L2.LineBytes)) % len(e.parts)
}

// reserve advances an absolute-time resource horizon: the segment starts
// at max(at, *horizon) and holds the resource for occ cycles. Returns the
// start time. occ == 0 disables the resource.
func reserve(horizon *uint64, at uint64, occ int) uint64 {
	if occ <= 0 {
		return at
	}
	if *horizon > at {
		at = *horizon
	}
	*horizon = at + uint64(occ)
	return at
}

// drain services every segment bucketed to this partition this cycle, in
// canonical order: cores by ascending id, and within a core in issue
// order (the coordinator builds the queue in exactly that traversal). It
// writes each segment's completion cycle into the request; the cores fold
// those into their scoreboards in applyMem. The completion cycles are
// final — nothing in the partition re-times a segment later — which is
// what lets the drain loop's idle-cycle fast-forward treat the warp
// scoreboard wakeups derived from these times as the complete set of
// future machine events.
//
// Pipeline, one pass per phase, all in canonical order:
//  1. ingress + L2 port reservation, L2 lookup. Hits are ready after
//     L2Lat; misses acquire an MSHR slot (waiting at absolute time for
//     the earliest slot when all are outstanding) and join the DRAM batch.
//  2. the DRAM channel schedules the batch FR-FCFS (dram.ServiceBatch).
//  3. misses fill the L2; dirty evictions become writeback DRAM traffic;
//     L2-merged segments resolve against the miss they rode.
//  4. every segment reserves the NoC response port and picks up its final
//     completion cycle.
func (p *partition) drain(cfg *Config) {
	if len(p.queue) == 0 {
		return
	}
	clear(p.lineDone)
	p.dramReqs = p.dramReqs[:0]
	p.missSegs = p.missSegs[:0]
	p.missSlot = p.missSlot[:0]
	p.missFill = p.missFill[:0]
	p.wbReqs = p.wbReqs[:0]
	p.mergedQ = p.mergedQ[:0]

	l2Lat := uint64(cfg.L2Lat)

	// Phase 1: ingress, L2 port, L2 lookup.
	for _, s := range p.queue {
		sh := &p.perKernel[s.runID]
		sh.L2Accesses++
		t := reserve(&p.ingressFree, s.arrive, cfg.L2IngressCycles)
		t = reserve(&p.portFree, t, cfg.L2PortCycles)
		stall := t - s.arrive
		res, _ := p.l2.Access(s.addr, s.write)
		switch res {
		case cache.Hit:
			sh.L2Hits++
			s.done = t + l2Lat // ready time; response path added in phase 4
		case cache.MissMerged:
			// rides an in-flight miss of the same batch; resolved in
			// phase 3 once the miss's DRAM data-ready time is known
			s.done = t + l2Lat
			p.mergedQ = append(p.mergedQ, s)
		default: // Miss or ReservationFail: go to DRAM
			sh.DRAMAccesses++
			start := t + l2Lat
			slot := -1
			if len(p.mshrFree) > 0 {
				// MSHR pool as an absolute-time reservation: take the
				// earliest-freeing slot, waiting for it when every slot
				// is still outstanding (retry-at-absolute-time instead
				// of the old free same-cycle service)
				slot = 0
				for i := 1; i < len(p.mshrFree); i++ {
					if p.mshrFree[i] < p.mshrFree[slot] {
						slot = i
					}
				}
				if p.mshrFree[slot] > start {
					stall += p.mshrFree[slot] - start
					start = p.mshrFree[slot]
				}
				// provisional hold so later misses of this same batch see
				// the slot occupied (a row-hit lower bound on the DRAM
				// trip); phase 3 raises it to the scheduled completion. A
				// batch of N misses therefore really consumes N slots.
				p.mshrFree[slot] = start + uint64(cfg.DRAM.TCL+cfg.DRAM.TBurst)
			}
			p.dramReqs = append(p.dramReqs, dram.Req{Arrive: start, Addr: s.addr, Write: s.write})
			p.missSegs = append(p.missSegs, s)
			p.missSlot = append(p.missSlot, slot)
			p.missFill = append(p.missFill, res == cache.Miss)
		}
		sh.IngressStallCycles += stall
	}

	// Phase 2: FR-FCFS DRAM scheduling over this cycle's miss batch.
	if len(p.dramReqs) > 0 {
		p.dramRefs = p.dramRefs[:0]
		for i := range p.dramReqs {
			p.dramRefs = append(p.dramRefs, &p.dramReqs[i])
		}
		p.ch.ServiceBatch(p.dramRefs)
	}

	// Phase 3: fills, dirty evictions, merged-segment resolution.
	for i, s := range p.missSegs {
		req := &p.dramReqs[i]
		if req.RowHit {
			p.perKernel[s.runID].DRAMRowHits++
		}
		if slot := p.missSlot[i]; slot >= 0 && req.Done > p.mshrFree[slot] {
			// raise, never lower: FR-FCFS may have completed a slot's
			// later (canonically) occupant before an earlier one
			p.mshrFree[slot] = req.Done
		}
		p.lineDone[p.l2.LineAddr(s.addr)] = req.Done
		if p.missFill[i] {
			if wb, victim := p.l2.Fill(s.addr, s.write); wb {
				// the evicted dirty line becomes real write traffic on
				// the DRAM channel, launched when the fill lands; the
				// writeback occupies bank/bus bandwidth but nothing
				// waits on its completion, so it adds no event source
				p.l2Writebacks++
				p.wbReqs = append(p.wbReqs, dram.Req{Arrive: req.Done, Addr: victim, Write: true})
			}
		}
		s.done = req.Done
	}
	for _, s := range p.mergedQ {
		d, ok := p.lineDone[p.l2.LineAddr(s.addr)]
		if !ok {
			// cannot happen today: an L2 MissMerged implies a pending L2
			// MSHR entry, entries are only created by a Miss earlier in
			// this same batch, and every Miss is filled (clearing the
			// entry) in this phase — so the parent's data-ready time is
			// always in lineDone. Fail the batch rather than quietly
			// mis-time segments if a refactor ever breaks that.
			p.err = fmt.Errorf("timing: partition %d: L2 merged segment without an in-batch parent miss", p.id)
			p.errRunID = s.runID
			return
		}
		if d > s.done {
			s.done = d
		}
	}
	if len(p.wbReqs) > 0 {
		p.wbRefs = p.wbRefs[:0]
		for i := range p.wbReqs {
			p.wbRefs = append(p.wbRefs, &p.wbReqs[i])
		}
		p.ch.ServiceBatch(p.wbRefs)
	}

	// Phase 4: response path back across the NoC, in canonical order
	// (FIFO response queue: an early segment with a late ready time
	// blocks the port for later ones).
	for _, s := range p.queue {
		r := reserve(&p.respFree, s.done, cfg.L2RespCycles)
		s.done = r + uint64(cfg.NoCLat)
		// replay entries memoize the latency with the rest of the record, so
		// AvgSegmentLatency stays meaningful when a launch's partition
		// traffic never re-executes
		sh := &p.perKernel[s.runID]
		sh.SegCycles += s.done - s.issue
	}
}

// partitionFault takes the memory stage's failure, the first in partition
// order, with the kernel it is charged to, and clears every partition's.
func (e *Engine) partitionFault() (runID int, err error) {
	runID = -1
	for _, p := range e.parts {
		if p.err != nil && err == nil {
			runID, err = p.errRunID, p.err
		}
		p.err = nil
	}
	return runID, err
}
