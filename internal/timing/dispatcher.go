package timing

import (
	"fmt"

	"repro/internal/exec"
)

// gridRun is one kernel resident in the detailed model: a grid plus its
// dispatch cursor and per-SM occupancy limit. Several gridRuns can be
// resident at once — that is how stream-level concurrency appears inside
// the engine.
type gridRun struct {
	grid *exec.Grid
	op   *Ticket // submission this run belongs to (stats land here)
	id   int     // dense per-drain id, indexes the cores' instr shards

	maxCTAs     int // per-SM CTA limit for this grid's resource footprint
	warpsPerCTA int
	smemPerCTA  int

	nextCTA int
	total   int
	pending []*exec.CTA // checkpoint-preloaded CTAs to place first
	done    int         // CTAs retired so far

	// free holds the slots of retired CTAs — register files, warp contexts
	// and scoreboards — for the grid's next blocks: every block of a grid
	// has the same shape. It never outgrows the run's resident capacity.
	// Once the last block is placed it is emptied into spare, the
	// engine's shape-agnostic free list of warps, and so is every CTA
	// that retires after that: the first wave of a later kernel is built
	// from them. A finished run stays reachable from its ticket until the
	// batch drains, and a batch can hold hundreds of them, so it keeps no
	// storage itself.
	free  []*ctaSlot
	spare *exec.FreeList
}

// occupancy computes the per-SM CTA limit for a grid: the configured CTA
// cap, shrunk by shared-memory and warp-slot pressure (GPGPU-Sim's
// max_cta calculation). It errors when one CTA cannot fit an SM at all;
// Submit calls it so that error is synchronous.
func occupancy(cfg *Config, g *exec.Grid) (int, error) {
	smemPerCTA := g.SharedBytes()
	warpsPerCTA := g.NumWarpsPerCTA()
	if warpsPerCTA > cfg.MaxWarpsPerSM {
		return 0, fmt.Errorf("timing: CTA needs %d warps, SM holds %d", warpsPerCTA, cfg.MaxWarpsPerSM)
	}
	maxCTAs := cfg.MaxCTAsPerSM
	if smemPerCTA > 0 {
		bySmem := cfg.SharedMemPerSM / smemPerCTA
		if bySmem == 0 {
			return 0, fmt.Errorf("timing: CTA needs %d B shared memory, SM has %d", smemPerCTA, cfg.SharedMemPerSM)
		}
		maxCTAs = min(maxCTAs, bySmem)
	}
	return min(maxCTAs, cfg.MaxWarpsPerSM/warpsPerCTA), nil
}

// initGridRun makes r the resident state of kernel ticket op under dense
// id, building its first CTAs from spare. Only the per-launch drain path
// builds one: a batch-rung hit dispatches nothing. Submit has checked the
// occupancy, so it cannot fail here.
func initGridRun(r *gridRun, cfg *Config, op *Ticket, id int, spare *exec.FreeList) {
	g := op.grid
	maxCTAs, _ := occupancy(cfg, g)
	*r = gridRun{
		grid:        g,
		op:          op,
		id:          id,
		maxCTAs:     maxCTAs,
		warpsPerCTA: g.NumWarpsPerCTA(),
		smemPerCTA:  g.SharedBytes(),
		nextCTA:     op.skipCTAs + len(op.preload),
		total:       g.NumCTAs(),
		pending:     append([]*exec.CTA(nil), op.preload...),
		done:        op.skipCTAs,
		spare:       spare,
	}
	op.run = r
}

// place returns a slot holding the run's next CTA: a preloaded one first,
// then fresh blocks in index order through a recycled slot when one is
// free, a new slot over spare storage otherwise. Coordinator-only, like
// everything that touches the free lists.
func (r *gridRun) place() *ctaSlot {
	if len(r.pending) > 0 {
		slot := r.newSlot(r.pending[0])
		slot.preloaded = true
		r.pending = r.pending[1:]
		return slot
	}
	i := r.nextCTA
	r.nextCTA++
	var slot *ctaSlot
	if n := len(r.free); n == 0 {
		slot = r.newSlot(r.grid.InitCTA(i, r.spare))
	} else {
		slot = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		slot.cta.Reset(i)
		for wi := range slot.warps {
			w := &slot.warps[wi]
			clear(w.regReady)
			w.minIssueAt = 0
		}
	}
	if r.exhausted() {
		for _, s := range r.free {
			r.spare.Put(s.cta)
		}
		r.free = nil
	}
	return slot
}

// newSlot builds the timing-side state of a CTA: one warp context and one
// all-readable scoreboard per warp.
func (r *gridRun) newSlot(cta *exec.CTA) *ctaSlot {
	slot := &ctaSlot{cta: cta, run: r, warps: make([]warpCtx, len(cta.Warps))}
	rows := r.grid.RegRows()
	regReady := make([]uint64, len(cta.Warps)*rows)
	for wi, w := range cta.Warps {
		slot.warps[wi] = warpCtx{
			slot: slot, warp: w, issue: r.grid.IssueTable(), runID: r.id,
			regReady: regReady[wi*rows : (wi+1)*rows : (wi+1)*rows],
		}
	}
	return slot
}

// retireCTA accounts for a CTA that left its core and keeps its slot for
// the run's next block, or its warps for the next kernel's once the run
// has none left to place. A preloaded CTA is the caller's and is kept by
// neither. Runs on the coordinator, in canonical core order.
func (r *gridRun) retireCTA(slot *ctaSlot) {
	r.done++
	switch {
	case slot.preloaded:
	case r.exhausted():
		r.spare.Put(slot.cta)
	default:
		r.free = append(r.free, slot)
	}
}

// exhausted reports whether the run has no more CTAs to dispatch.
func (r *gridRun) exhausted() bool { return len(r.pending) == 0 && r.nextCTA >= r.total }

// finished reports whether every CTA of the grid has retired.
func (r *gridRun) finished() bool { return r.done >= r.total }

// dispatcher assigns CTAs from the resident grids to free SM slots. It
// runs only on the coordinator goroutine, between cycle phases, so
// dispatch order — and with it every downstream timing decision — is
// independent of the worker count.
//
// The placement policy is the left-over policy for concurrent kernels:
// resident grids are visited in submission (stream-ordered) order, and
// each takes whatever SM capacity the grids ahead of it left over,
// bounded by its own per-grid shader occupancy limit. With one resident
// grid this degenerates to the classic single-kernel fill.
type dispatcher struct {
	runs []*gridRun // resident grids in submission order

	// dirty records that placement capacity may have changed since the
	// last fill: a grid was admitted or a CTA retired (freeing a slot,
	// warp contexts and shared memory). canHold depends on nothing else,
	// so while dirty is false a fill would place nothing and is skipped
	// — the stalled-machine common case costs O(1) instead of
	// O(runs × cores). The flag is driven purely by simulation events,
	// so skipping keeps dispatch deterministic and cycle-identical.
	dirty bool
}

// admit makes a grid resident.
func (d *dispatcher) admit(r *gridRun) {
	d.runs = append(d.runs, r)
	d.dirty = true
}

// fill tops up the cores with CTAs. Grids are visited in submission
// order; within a grid, CTAs go round-robin across cores in id order
// (GPGPU-Sim's issue_block2core rotation, made deterministic), so a
// small grid spreads over the SMs instead of packing the lowest ids. A
// CTA is placed only if the core has a free slot, enough warp contexts
// and shared memory, and the grid is below its own per-SM occupancy
// limit on that core.
func (d *dispatcher) fill(cfg *Config, cores []*smCore) {
	if !d.dirty {
		return
	}
	d.dirty = false
	for _, r := range d.runs {
		placed := true
		for placed && !r.exhausted() {
			placed = false
			for _, c := range cores {
				if r.exhausted() {
					break
				}
				if !c.canHold(cfg, r) {
					continue
				}
				c.addCTA(r.place())
				placed = true
			}
		}
	}
}

// retire removes finished runs from the resident set, preserving order.
func (d *dispatcher) retire() {
	keep := d.runs[:0]
	for _, r := range d.runs {
		if !r.finished() {
			keep = append(keep, r)
		}
	}
	for i := len(keep); i < len(d.runs); i++ {
		d.runs[i] = nil
	}
	d.runs = keep
}

// canHold reports whether the core has room for one more CTA of run r:
// a free slot overall, warp-context and shared-memory headroom, and
// r below its per-grid occupancy cap on this core.
func (c *smCore) canHold(cfg *Config, r *gridRun) bool {
	if len(c.slots) >= cfg.MaxCTAsPerSM {
		return false
	}
	if c.warpsUsed+r.warpsPerCTA > cfg.MaxWarpsPerSM {
		return false
	}
	if r.smemPerCTA > 0 && c.smemUsed+r.smemPerCTA > cfg.SharedMemPerSM {
		return false
	}
	n := 0
	for _, s := range c.slots {
		if s.run == r {
			n++
		}
	}
	return n < r.maxCTAs
}
