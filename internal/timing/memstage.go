package timing

import (
	"repro/internal/cache"
	"repro/internal/exec"
)

// The memory stage models everything below a core's issue logic: the
// coalescer, the per-core L1, and the shared L2/DRAM partitions. It is
// split across the engine's cycle phases:
//
//   1. memIssue (parallel, per core): coalesce the warp access into
//      line-sized segments and look each up in the core-owned L1. Segments
//      that hit complete immediately; the rest become segRequests bound
//      for a partition.
//   2. partition.drain (parallel, per partition): service every queued
//      segment in canonical (core id, issue order) order through the
//      partition-owned L2 slice and DRAM channel.
//   3. applyMem (parallel, per core): fold segment completion times back
//      into the warp scoreboards and the core's L1 fill/MSHR state.
//
// Cross-core state is only ever touched in phase 2, in an order that does
// not depend on the worker count — that is the determinism contract.

// segRequest is one sector-sized segment of a warp memory access that
// needs the shared memory system.
type segRequest struct {
	addr   uint64
	issue  uint64 // cycle the warp issued the access (latency accounting)
	arrive uint64 // cycle the request reaches the partition
	part   int    // owning partition
	runID  int    // dense per-drain id of the owning grid (stat attribution)
	write  bool
	atomic bool
	merged bool // L1 MissMerged: rides the in-flight fill, no partition trip
	fillL1 bool // install the line in L1 on response
	done   uint64
}

// memRequest is one warp memory instruction in flight through the memory
// stage for the current cycle.
type memRequest struct {
	w        *warpCtx
	dst      []int32 // the instruction's destination slots
	isStore  bool
	isAtomic bool
	done     uint64 // running max completion over already-resolved segments
	segs     []segRequest
}

// newReq appends a reset request to the core's queue, reusing backing
// storage from previous cycles.
func (c *smCore) newReq() *memRequest {
	if len(c.memQ) < cap(c.memQ) {
		c.memQ = c.memQ[:len(c.memQ)+1]
	} else {
		c.memQ = append(c.memQ, memRequest{})
	}
	r := &c.memQ[len(c.memQ)-1]
	r.segs = r.segs[:0]
	return r
}

// coalesce merges a warp memory operation into sector-sized segments
// (Config.sectorBytes: min of the L1 and L2 line sizes, so a segment
// never straddles an L2 line and always routes to exactly one
// partition), writing them into the core's persistent scratch slice.
func (c *smCore) coalesce(info *exec.StepInfo) []uint64 {
	segSize := c.eng.cfg.sectorBytes()
	segs := c.segScratch[:0]
	for l := 0; l < exec.WarpSize; l++ {
		if info.ActiveMask&(1<<l) == 0 {
			continue
		}
		base := info.Addrs[l] &^ (segSize - 1)
		found := false
		for _, s := range segs {
			if s == base {
				found = true
				break
			}
		}
		if !found {
			segs = append(segs, base)
		}
		// vector accesses may straddle a segment boundary
		endSeg := (info.Addrs[l] + uint64(info.AccSize) - 1) &^ (segSize - 1)
		if endSeg != base {
			found = false
			for _, s := range segs {
				if s == endSeg {
					found = true
					break
				}
			}
			if !found {
				segs = append(segs, endSeg)
			}
		}
	}
	c.segScratch = segs
	return segs
}

// memIssue runs the core-local half of the memory stage for one warp
// memory instruction: coalescing plus the L1 lookup. Segments needing the
// shared L2/DRAM are queued for the partition drain.
func (c *smCore) memIssue(info *exec.StepInfo, w *warpCtx, now uint64) {
	e := c.eng
	segs := c.coalesce(info)
	c.stats.MemInstructions++
	c.stats.MemSegments += uint64(len(segs))

	req := c.newReq()
	req.w = w
	req.dst = w.issue.Dst(info.PC)
	req.isStore = info.IsStore
	req.isAtomic = info.IsAtomic
	req.done = now

	for _, seg := range segs {
		c.stats.L1Accesses++
		res, _ := c.l1.Access(seg, info.IsStore)
		if res == cache.Hit && !info.IsAtomic {
			if d := now + uint64(e.cfg.L1HitLat); d > req.done {
				req.done = d
			}
			continue
		}
		if res == cache.MissMerged {
			// ride the in-flight fill; resolved against lastMissDone in
			// applyMem so earlier misses of this cycle are visible
			req.segs = append(req.segs, segRequest{addr: seg, merged: true})
			continue
		}
		retry := uint64(0)
		if res == cache.ReservationFail {
			// model the structural stall as waiting for the oldest miss;
			// lastMissDone here reflects completions up to the previous
			// cycle (this cycle's land in applyMem), a one-cycle lag the
			// staged pipeline accepts in exchange for determinism
			c.stats.MSHRFull++
			if c.lastMissDone > now {
				retry = c.lastMissDone - now
			}
		}
		// traverse NoC to the owning partition
		c.stats.NoCFlits++
		req.segs = append(req.segs, segRequest{
			addr:   seg,
			issue:  now,
			arrive: now + retry + uint64(e.cfg.NoCLat),
			part:   e.partOf(seg),
			runID:  w.runID,
			write:  info.IsStore,
			atomic: info.IsAtomic,
			fillL1: !info.IsStore && (res == cache.Miss || res == cache.ReservationFail),
		})
	}
}

// applyMem is phase 3: resolve every queued request's completion time and
// write it back into the warp scoreboard, L1 and MSHR-retry state. Runs
// per core, after the partition drain, in issue order.
//
// Invariant (idle-cycle fast-forward): every future event that could let
// a warp issue again must land in the scoreboard/minIssueAt state here as
// an absolute cycle number. The drain loop's fast-forward jumps the clock
// to the minimum of these wakeups when no scheduler issued, so a memory
// path that delayed a warp without recording a wakeup time would be
// skipped over — changing modelled cycles — instead of merely costing
// host time.
func (c *smCore) applyMem(now uint64) {
	e := c.eng
	hitLat := uint64(e.cfg.L1HitLat)
	turnaround := uint64(e.cfg.L2Lat)
	for i := range c.memQ {
		req := &c.memQ[i]
		done := req.done
		for j := range req.segs {
			s := &req.segs[j]
			var d uint64
			if s.merged {
				if c.lastMissDone > now {
					d = c.lastMissDone
				} else {
					d = now + hitLat
				}
			} else {
				c.stats.NoCFlits++ // the partition's response
				if s.fillL1 {
					c.l1.Fill(s.addr, false)
				}
				if s.done > c.lastMissDone {
					c.lastMissDone = s.done
				}
				d = s.done
				if s.atomic {
					d += turnaround // read-modify-write turnaround at L2
				}
			}
			if d > done {
				done = d
			}
		}
		w := req.w
		switch {
		case req.isAtomic:
			w.minIssueAt = done
			w.markDst(req.dst, done)
		case req.isStore:
			// stores don't block the warp
		default:
			w.markDst(req.dst, done)
		}
	}
}
