package timing

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/cache"
	"repro/internal/cudart"
	"repro/internal/dram"
	"repro/internal/exec"
)

// Engine is the cycle-level performance model. It persists across kernel
// launches so the AerialVision time series span a whole application run,
// exactly like the plots in the paper's §V.
//
// The engine is organised as a parallel event-driven pipeline. Each cycle
// runs in phases separated by barriers:
//
//	issue stage   — every SM core schedules and issues independently
//	                (parallel across cores; only core-owned state)
//	atomic drain  — deferred atomics execute sequentially in core order
//	memory stage  — partitions service queued L2/DRAM traffic in
//	                canonical order (parallel across partitions)
//	apply + CTA   — completion times fold back into the scoreboards
//	                (parallel across cores); the dispatcher refills cores
//
// All cross-core interactions live in the ordered phases, so the reported
// cycle counts and statistics are bit-identical for every worker count.
//
// Kernels are executed through a submission queue: Submit enqueues a
// launch on a stream, Drain runs the machine until every queued operation
// retires. Operations on the same stream serialise; operations on
// different streams become concurrently-resident grids, with CTAs
// assigned to SMs by the multi-grid dispatcher's left-over policy (see
// dispatcher.go). Host-device copies ride a modelled copy engine and
// order against kernels on their stream. All admission, dispatch and
// retirement decisions happen on the coordinator goroutine in submission
// order, so concurrent execution preserves the worker-count determinism
// contract. RunGrid remains as the one-kernel convenience wrapper.
type Engine struct {
	cfg     Config
	cores   []*smCore
	active  []*smCore // the stepped cycle's cores with something due, in id order
	parts   []*partition
	cycle   uint64
	stats   *Stats
	workers int
	pool    *pool // cached across launches; rebuilt when the count changes

	queue         []*Ticket     // submitted, not yet drained operations, in submission order
	tickets       []Ticket      // the current slab chunk tickets come from (newTicket)
	machine       *exec.Machine // machine bound to the pending batch
	copyBusyUntil uint64        // cycle the modelled copy engine frees up

	// replay is the hybrid-replay memoization cache (replay.go), nil
	// unless Config.ReplayEnabled. Coordinator-owned: Submit computes
	// signatures, the drain loop looks up and stages entries, so worker
	// count cannot influence replay decisions.
	replay *replayCache
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets how many host worker goroutines step SM cores
// concurrently. 1 (the default) runs fully inline; n <= 0 selects
// runtime.NumCPU(). Any value produces identical simulation results.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		e.workers = n
	}
}

// New builds an engine for a machine configuration.
func New(cfg Config, opts ...Option) (*Engine, error) {
	e := &Engine{cfg: cfg, stats: NewStats(cfg), workers: 1, active: make([]*smCore, 0, cfg.NumSMs)}
	for i := 0; i < cfg.NumSMs; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		e.cores = append(e.cores, newCore(i, e, l1))
	}
	for i := 0; i < cfg.NumPartitions; i++ {
		l2, err := cache.New(cfg.L2)
		if err != nil {
			return nil, err
		}
		e.parts = append(e.parts,
			newPartition(i, l2, dram.NewChannel(cfg.DRAM, uint64(cfg.SampleInterval)), cfg.L2.MSHRs))
	}
	if cfg.ReplayEnabled {
		e.replay = newReplayCache(&cfg)
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns accumulated statistics.
func (e *Engine) Stats() *Stats { return e.stats }

// Cycle returns the current cycle.
func (e *Engine) Cycle() uint64 { return e.cycle }

// AdvanceTo fast-forwards an idle engine's clock to the given absolute
// cycle, charging the bridged span to the idle statistics exactly like
// the drain loop's idle fast-forward (so bucket sums keep matching
// elapsed cycles). The multi-GPU node uses it to charge modelled NVLink
// communication time at collective boundaries: every participating
// engine is advanced to the collective's completion cycle. Targets at
// or before the current cycle are a no-op; an engine with queued work
// refuses (the caller must drain first, otherwise the jump would
// overlap the queued operations' timing).
func (e *Engine) AdvanceTo(cycle uint64) error {
	if len(e.queue) != 0 {
		return fmt.Errorf("timing: AdvanceTo(%d) with %d queued operations (drain first)", cycle, len(e.queue))
	}
	e.idleTo(cycle)
	return nil
}

// idleTo moves the clock forward to an absolute cycle over a span in
// which no scheduler can issue, charging the span to the stall series and
// IdleSlotCycles so bucket sums keep matching elapsed cycles. Every clock
// jump goes through here: the drain loop's two fast-forwards (by way of
// jumpTo), the batch rung's retirement-to-retirement jumps and AdvanceTo.
// A target at or before the current cycle is a no-op.
func (e *Engine) idleTo(cycle uint64) {
	if cycle <= e.cycle {
		return
	}
	span := cycle - e.cycle
	e.stats.addIdleBulk(e.cycle, span)
	e.stats.FastForwardedCycles += span
	e.cycle = cycle
}

// jumpTo is the drain loop's fast-forward: every scheduler settles its
// quiet interval up to the current cycle, the clock jumps (idleTo, which
// charges the bridged span), and the intervals resume at the target. Only
// a drain has open intervals; the batch rung and AdvanceTo jump between
// drains and call idleTo alone.
func (e *Engine) jumpTo(cycle uint64) {
	if cycle <= e.cycle {
		return
	}
	for _, c := range e.cores {
		for i := range c.scheds {
			sc := &c.scheds[i]
			sc.settle(c.stats, e.cycle)
			sc.from = cycle
		}
	}
	e.idleTo(cycle)
}

// settleStepped charges the stepped cycle now to every scheduler the
// per-cycle walk would have charged before a failure inside that cycle:
// all of them, except, on a core whose issue stage failed, the scheduler
// that failed and the ones after it, which the walk never reached.
// abortBatch settles the rest up to now.
func (e *Engine) settleStepped(now uint64) {
	for _, c := range e.cores {
		scheds := c.scheds
		if c.err != nil {
			scheds = scheds[:c.errSched]
		}
		for i := range scheds {
			scheds[i].settle(c.stats, now+1)
		}
	}
}

// Partitions exposes the DRAM channels (for the aerial plots).
func (e *Engine) Partitions() []*dram.Channel {
	out := make([]*dram.Channel, len(e.parts))
	for i, p := range e.parts {
		out[i] = p.ch
	}
	return out
}

// Runner adapts the engine to cudart.Runner — installing it on a context
// switches the context into the paper's Performance simulation mode. It
// also implements cudart.StreamRunner, so async launches and copies on
// non-default streams execute concurrently inside the detailed model.
type Runner struct{ E *Engine }

// RunKernel implements cudart.Runner.
func (r Runner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	return r.E.RunGrid(g)
}

// SubmitKernel implements cudart.StreamRunner: the launch is queued on
// the stream and simulated at the next Drain.
func (r Runner) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	return r.E.Submit(g, stream)
}

// SubmitCopy implements cudart.StreamRunner: an n-byte host-device copy
// queued on the stream; apply runs when the modelled transfer completes.
func (r Runner) SubmitCopy(stream, bytes int, apply func()) cudart.AsyncTicket {
	return r.E.SubmitCopy(stream, bytes, apply)
}

// DrainAll implements cudart.StreamRunner.
func (r Runner) DrainAll() error { return r.E.Drain() }

// ClockMHz reports the modelled core clock. Nothing in this module calls
// it: bench/runners.go wraps a Runner method for method, and bench/ is
// only changed by benchmark PRs (ROADMAP item 6(a) drops it there, then
// here).
func (r Runner) ClockMHz() float64 { return r.E.cfg.ClockMHz }

// opKind distinguishes queued operations.
type opKind uint8

const (
	opKernel opKind = iota
	opCopy
)

// Ticket is a handle to one submitted operation. Kernel tickets carry the
// per-kernel statistics once the operation has been drained.
type Ticket struct {
	kind   opKind
	stream int

	grid     *exec.Grid
	skipCTAs int
	preload  []*exec.CTA
	run      *gridRun // resident state, built when a per-launch drain opens (sizeShards)

	copyBytes int
	copyApply func()

	// prev/next link the operation to its same-stream neighbours within
	// the batch (nil at the ends). Same-stream ops complete in order, so
	// prev.done means every predecessor is done, and next is the ticket
	// that becomes admission-eligible when this one retires. seq is the
	// submission-queue index, used to restore submission order when
	// several streams unblock in the same cycle (see schedule.go).
	prev *Ticket
	next *Ticket
	seq  int

	admitted   bool
	startCycle uint64 // kernels: admission cycle; copies: transfer start
	endCycle   uint64 // copies and replay hits: modelled completion cycle
	done       bool
	mem        MemCounters        // the kernel's record, as retirement assigned it
	stats      cudart.KernelStats // what the launch log keeps of it
	err        error

	// Hybrid replay (replay.go). sig/hasSig: the launch's replay
	// signature, computed at submit when replay is on (resume launches
	// never get one — a partially pre-retired grid's timing must not
	// poison the cache). replayEnt: the memoized entry a hit retires
	// from. resample: a hit the cadence sent back to detailed
	// simulation so retirement measures drift and refreshes the entry.
	sig       replaySig
	hasSig    bool
	replayEnt *replayEntry
	resample  bool
}

// Done reports whether the operation has retired.
func (t *Ticket) Done() bool { return t.done }

// Stats returns the kernel statistics. It errors until the engine has
// drained the ticket, and reports the simulation error if the kernel
// failed.
func (t *Ticket) Stats() (cudart.KernelStats, error) {
	if t.err != nil {
		return t.stats, t.err
	}
	if !t.done {
		return t.stats, fmt.Errorf("timing: ticket not drained yet (call Engine.Drain)")
	}
	return t.stats, nil
}

// record assigns the ticket its kernel's record: the one conversion from
// the ledger to the launch log's view of it (KernelStats has no room for
// the segment latency sums, which the ticket keeps in mem).
func (t *Ticket) record(instrs, segs uint64, mem MemCounters) {
	t.mem = mem
	st := &t.stats
	st.WarpInstrs = instrs
	st.OracleSegments = uint32(segs)
	st.L2Accesses = mem.L2Accesses
	st.L2Hits = mem.L2Hits
	st.L2Misses = mem.L2Misses
	st.DRAMAccesses = mem.DRAMAccesses
	st.DRAMRowHits = mem.DRAMRowHits
	st.MemStallCycles = mem.IngressStallCycles
}

// Submit queues a kernel launch on a stream without running it. Launches
// on the same stream execute in submission order; launches on different
// streams run concurrently during Drain. All queued operations must come
// from the same functional machine (one simulated device).
func (e *Engine) Submit(g *exec.Grid, stream int) (*Ticket, error) {
	return e.submit(g, stream, 0, nil)
}

func (e *Engine) submit(g *exec.Grid, stream, skipCTAs int, preload []*exec.CTA) (*Ticket, error) {
	if e.machine != nil && g.Machine() != e.machine {
		return nil, fmt.Errorf("timing: engine has pending work from a different machine")
	}
	if _, err := occupancy(&e.cfg, g); err != nil {
		return nil, err
	}
	t := e.newTicket()
	*t = Ticket{
		kind: opKernel, stream: stream,
		grid: g, skipCTAs: skipCTAs, preload: preload,
		stats: cudart.KernelStats{
			Name: g.Kernel.Name, GridDim: g.GridDim, BlockDim: g.BlockDim,
		},
	}
	if e.replay != nil && skipCTAs == 0 && preload == nil {
		t.sig = e.replay.signature(g)
		t.hasSig = true
	}
	e.machine = g.Machine()
	e.queue = append(e.queue, t)
	return t, nil
}

// SubmitCopy queues an n-byte host-device transfer on a stream. The copy
// orders against kernels and copies on its stream, serialises with other
// transfers on the modelled copy engine, and runs apply (the functional
// memory effect) when the modelled transfer completes. The returned
// ticket reports the transfer's occupancy as Stats().Cycles; the other
// kernel statistics stay zero.
func (e *Engine) SubmitCopy(stream, bytes int, apply func()) *Ticket {
	t := e.newTicket()
	*t = Ticket{
		kind: opCopy, stream: stream,
		copyBytes: bytes, copyApply: apply,
	}
	e.queue = append(e.queue, t)
	return t
}

// ticketChunk is how many tickets one slab chunk holds.
const ticketChunk = 128

// newTicket hands out the next ticket of the engine's slab, one
// allocation per ticketChunk submissions. A ticket is never recycled: its
// caller may keep it after the drain, and releaseQueue promises its stats
// and error survive. A chunk is freed once none of its tickets is held.
func (e *Engine) newTicket() *Ticket {
	if len(e.tickets) == cap(e.tickets) {
		e.tickets = make([]Ticket, 0, ticketChunk)
	}
	e.tickets = e.tickets[:len(e.tickets)+1]
	return &e.tickets[len(e.tickets)-1]
}

// RunGrid simulates one kernel launch to completion (any previously
// submitted operations drain along with it).
func (e *Engine) RunGrid(g *exec.Grid) (cudart.KernelStats, error) {
	return e.RunGridResume(g, 0, nil)
}

// RunGridResume simulates a launch whose first skipCTAs blocks already
// completed before a checkpoint, with `preload` holding mid-flight CTAs
// restored from checkpoint Data1 (paper §III-F resume flow, Fig. 5).
func (e *Engine) RunGridResume(g *exec.Grid, skipCTAs int, preload []*exec.CTA) (cudart.KernelStats, error) {
	t, err := e.submit(g, 0, skipCTAs, preload)
	if err != nil {
		return cudart.KernelStats{}, err
	}
	if err := e.Drain(); err != nil {
		if t.err != nil {
			return cudart.KernelStats{}, t.err
		}
		return cudart.KernelStats{}, err
	}
	return t.stats, t.err
}

// copyBytesPerUs is the copy engine's bandwidth for
// MemcpyHtoDAsync/DtoHAsync: ~12 GB/s (PCIe 3.0 x16) in bytes per µs.
const copyBytesPerUs = 12e3

// copyCycles converts a transfer size to copy-engine cycles at the core
// clock.
func (e *Engine) copyCycles(bytes int) uint64 {
	bpc := copyBytesPerUs / e.cfg.ClockMHz
	return uint64(float64(bytes)/bpc + 0.5)
}

// Drain simulates until every submitted operation has retired: admit
// eligible operations, step the machine cycle by cycle, retire
// operations, until the queue is empty. Statistics land on the tickets;
// the first failure aborts the whole batch and is returned (every
// unfinished ticket gets an error).
//
// Per-cycle work is O(active grids + active copies + newly ready
// tickets), not O(total queued tickets): the schedule (schedule.go)
// tracks the first-unfinished cursor, the admission-ready list and the
// in-flight copy list incrementally, so a transformer-scale batch of
// hundreds of queued tickets costs the same per cycle as a single
// kernel. Fully stalled stretches — every core waiting on memory and/or
// the copy engine mid-transfer — fast-forward the clock to the next
// event (earliest scoreboard wakeup, which already reflects partition
// service times, or earliest copy completion) instead of ticking empty
// cycles; the skipped cycles are charged to the stall statistics so the
// modelled cycle counts and bucket sums are identical to a cycle-by-
// cycle walk.
//
// Under hybrid replay a batch the cache has already seen retire launch
// for launch from applied memos skips all of that and retires as one
// memoized unit (replayBatch, replay.go), with the same cycles,
// statistics and memory as the loop below would have left.
func (e *Engine) Drain() error {
	if len(e.queue) == 0 {
		return nil
	}
	if e.replayBatch() {
		e.releaseQueue()
		return nil
	}
	m := e.machine
	batchStart := e.cycle

	e.sizeShards()
	sch := newSchedule(e.queue)

	p := e.getPool(e.workers)

	var disp dispatcher
	nParts := len(e.parts)
	deadline := e.cycle + 2_000_000_000 // runaway guard

	// The bodies of the per-cycle stages are built once, here: a closure
	// handed to pool.run escapes, so building them inside the loop would
	// heap-allocate one of each per simulated cycle. They read the cycle
	// and the active cores from the engine, which only change between
	// stages.
	issueStage := func(i int) { e.active[i].stageIssue(m, e.cycle) }
	partitionStage := func(i int) { e.parts[i].drain(&e.cfg) }
	applyStage := func(i int) { e.active[i].applyMem(e.cycle) }

	for {
		// Complete in-flight timed operations — copies run their
		// functional memory effect now that the modelled transfer has
		// finished; replay-hit kernels retire with their memoized stats
		// (finishReplay) — then check for overall completion. O(active
		// timed ops), and the cursor makes the completion check O(1)
		// amortised.
		failID := -1
		ferr := sch.completeTimed(e.cycle, func(t *Ticket) error {
			if t.kind == opCopy {
				if t.copyApply != nil {
					t.copyApply()
					t.copyApply = nil
				}
				t.stats.Cycles = t.endCycle - t.startCycle
				t.done = true
				return nil
			}
			if err := e.finishReplay(t); err != nil {
				failID = t.run.id
				return err
			}
			return nil
		})
		if ferr != nil {
			return e.abortBatch(ferr, failID)
		}
		if sch.drained() {
			break
		}

		// Admit operations whose stream predecessor has retired, in
		// submission order (the deterministic stream-ordered policy).
		// Only tickets that just became stream heads are visited.
		if ready := sch.takeReady(); len(ready) > 0 {
			for _, t := range ready {
				if t.done || t.admitted {
					continue
				}
				if t.kind == opKernel {
					t.startCycle = e.cycle
					if ent := e.replayLookup(t); ent != nil {
						// Replay hit: no CTA dispatch — the launch
						// retires at an absolute cycle on the timed
						// list, like a copy, so the fast-forward
						// invariant holds unchanged.
						t.replayEnt = ent
						t.endCycle = e.cycle + ent.cycles
						t.admitted = true
						sch.addTimed(t)
					} else {
						disp.admit(t.run)
						t.admitted = true
					}
				} else {
					start := e.cycle
					if e.copyBusyUntil > start {
						start = e.copyBusyUntil
					}
					t.startCycle = start
					t.endCycle = start + e.copyCycles(t.copyBytes)
					e.copyBusyUntil = t.endCycle
					t.admitted = true
					sch.addTimed(t)
				}
			}
			sch.clearReady()
		}

		disp.fill(&e.cfg, e.cores)

		if len(disp.runs) == 0 {
			// Only timed operations (copies, replay hits) in flight:
			// jump to the earliest completion, charging the bridged
			// cycles to the stall statistics like the stalled-machine
			// fast-forward below, so bucket sums keep matching elapsed
			// cycles.
			wake := sch.earliestTimedEnd()
			if wake == ^uint64(0) {
				return e.abortBatch(fmt.Errorf("timing: drain stalled with pending work"), -1)
			}
			e.jumpTo(wake)
			continue
		}

		if e.cycle > deadline {
			return e.abortBatch(fmt.Errorf("timing: exceeded cycle budget (deadlock?)"), -1)
		}
		now := e.cycle

		// Only cores with something due are visited: a re-armed or ready
		// warp (hot) or a wakeup at or before now. A sleeping core's nextAt
		// is still its next event, so it bounds the fast-forward as is.
		progressAt := uint64(^uint64(0))
		e.active = e.active[:0]
		for _, c := range e.cores {
			if c.hot || c.nextAt <= now {
				e.active = append(e.active, c)
			} else if c.nextAt < progressAt {
				progressAt = c.nextAt
			}
		}

		// Phase 1: parallel issue stage.
		p.run(len(e.active), issueStage)

		anyIssued := false
		anyMem := false
		for _, c := range e.active {
			if c.err != nil {
				e.settleStepped(now)
				return e.abortBatch(c.err, c.errRunID)
			}
			// Phase 2: sequential atomic drain, core id order.
			for _, w := range c.atomQ {
				if err := c.issue(m, w, now); err != nil {
					e.settleStepped(now)
					return e.abortBatch(err, w.runID)
				}
			}
			if c.issuedAny {
				anyIssued = true
			} else if c.nextAt < progressAt {
				progressAt = c.nextAt
			}
			if len(c.memQ) > 0 {
				anyMem = true
			}
			// CTA retirement, attributed per grid in canonical core
			// order. A retirement frees placement capacity, so the
			// dispatcher must re-run its fill next cycle.
			if len(c.retiredSlots) > 0 {
				disp.dirty = true
			}
			for _, s := range c.retiredSlots {
				s.run.retireCTA(s)
			}
		}

		if anyMem {
			// Bucket this cycle's segments into per-partition queues in
			// canonical (core id, issue order) order. Runs after the
			// atomic drain so memQ backing arrays are final and the
			// queued pointers stay valid.
			for _, pt := range e.parts {
				pt.queue = pt.queue[:0]
			}
			for _, c := range e.active {
				for i := range c.memQ {
					req := &c.memQ[i]
					for j := range req.segs {
						s := &req.segs[j]
						if !s.merged {
							e.parts[s.part].queue = append(e.parts[s.part].queue, s)
						}
					}
				}
			}
			// Phase 3: parallel partition drain (canonical order inside).
			p.run(nParts, partitionStage)
			if id, err := e.partitionFault(); err != nil {
				e.settleStepped(now)
				return e.abortBatch(err, id)
			}
			// Phase 4: parallel scoreboard/L1 apply.
			p.run(len(e.active), applyStage)
		}

		// Retire finished grids in submission order; each retirement
		// unblocks the next ticket on its stream for admission at the
		// top of the next cycle.
		for _, r := range disp.runs {
			if r.finished() && !r.op.done {
				e.finishRun(r, now)
				sch.complete(r.op)
			}
		}
		disp.retire()

		e.cycle++
		if !anyIssued {
			// Idle-cycle fast-forward over a fully stalled machine: no
			// scheduler issued, so the machine state cannot change until
			// the earliest scoreboard wakeup (progressAt, which reflects
			// partition service completion times folded in by applyMem)
			// or the earliest timed completion — a copy or a replay hit,
			// either of which can admit new kernels. Jump the clock
			// there, charging the skipped cycles to the stall statistics
			// so bucket sums still match elapsed cycles and modelled
			// cycle counts are identical to a cycle-by-cycle walk.
			wake := progressAt
			if cw := sch.earliestTimedEnd(); cw < wake {
				wake = cw
			}
			if wake == ^uint64(0) {
				// No warp has a future ready time and no timed op is in
				// flight. If the batch just drained (a grid with no
				// issuable work retired this cycle — e.g. a checkpoint
				// resume whose CTAs were all pre-retired) or a
				// retirement unblocked admissions, the next iteration
				// makes progress. Otherwise the state is time-invariant
				// and ticking to the cycle budget would just hang —
				// abort now instead.
				if !sch.drained() && len(sch.ready) == 0 {
					return e.abortBatch(fmt.Errorf("timing: machine deadlocked with resident work"), -1)
				}
			} else {
				e.jumpTo(wake)
			}
		}
	}

	e.mergeShards()
	if e.replay != nil {
		// Publish this batch's freshly measured entries only now that the
		// whole batch retired cleanly: later batches may replay them, the
		// batch that recorded them never could.
		e.replay.commit()
		e.replay.noteBatch(e.queue, batchStart)
	}
	e.releaseQueue()
	return nil
}

// sizeShards opens the ledger for the queued batch: kernels get dense
// ids in submission order, their resident state (one array of gridRuns
// for the batch), and every core and partition a zeroed record per id.
// The cores' schedulers and series restart with it: every stall ledger
// opens at the batch's first cycle (between drains the clock moves by
// idleTo alone, which charges its spans itself).
func (e *Engine) sizeShards() {
	nKernels := 0
	for _, t := range e.queue {
		if t.kind == opKernel {
			nKernels++
		}
	}
	runs := make([]gridRun, nKernels)
	id := 0
	for _, t := range e.queue {
		if t.kind == opKernel {
			initGridRun(&runs[id], &e.cfg, t, id)
			id++
		}
	}
	for _, pt := range e.parts {
		pt.perKernel = slices.Grow(pt.perKernel[:0], nKernels)[:nKernels]
		clear(pt.perKernel)
	}
	for _, c := range e.cores {
		for i := range c.scheds {
			c.scheds[i].rr, c.scheds[i].from = 0, e.cycle
		}
		c.stats.rebase(e.cycle)
		c.runInstrs = slices.Grow(c.runInstrs[:0], nKernels)[:nKernels]
		clear(c.runInstrs)
		c.runSegs = slices.Grow(c.runSegs[:0], nKernels)[:nKernels]
		clear(c.runSegs)
	}
}

// replayLookup consults the replay cache at admission. A nil return means
// the launch runs in detail — replay off, no signature (resume launch), a
// cold miss, or a hit the re-sampling cadence selected for detailed
// execution (flagged on the ticket so retirement measures drift and
// refreshes the entry). Coordinator-only, so hit/miss decisions are
// independent of worker count.
func (e *Engine) replayLookup(t *Ticket) *replayEntry {
	if e.replay == nil || !t.hasSig {
		return nil
	}
	ent := e.replay.entries[t.sig]
	if ent == nil {
		e.stats.ReplayMisses++
		return nil
	}
	ent.hits++
	if n := e.cfg.ReplayResampleEvery; n > 0 && ent.hits%uint64(n) == 0 {
		e.stats.ReplayResamples++
		t.resample = true
		return nil
	}
	e.stats.ReplayHits++
	return ent
}

// finishReplay retires a replay-hit ticket at its memoized end cycle. The
// launch's functional memory effects execute now, on the coordinator
// (replay memoizes timing, not semantics — final device memory stays
// byte-identical to a detailed run), and the memoized per-kernel stats
// fold into the ticket and the engine-wide accumulators exactly as a
// detailed retirement would have. Replay reconstructs the memoized
// aggregates only — the per-interval time series and the uncached
// counters (ThreadInstrs, ALU/SFU ops, L1 traffic, …) stay flat across
// the replayed window.
func (e *Engine) finishReplay(t *Ticket) error {
	ent := t.replayEnt
	// Functional effect, cheapest sound path first: apply the captured
	// write-set when the read-set still matches current memory; capture
	// (= run + record) on the first hit or when memory moved underneath
	// a stale memo; plain re-interpretation when capture found
	// unmemoizable state (textures). All three produce byte-identical
	// memory; only wall-clock (and the functional coverage counters,
	// which the apply path does not bump) differs.
	matched := false
	if ent.memo != nil {
		e.replay.validated += uint64(ent.memo.ReadBytes())
		matched = ent.memo.Matches(e.machine)
	}
	switch {
	case matched:
		ent.memo.Apply(e.machine)
		e.stats.ReplayMemoApplied++
		e.replay.applied = append(e.replay.applied, t)
	case !ent.memoTried || ent.memo != nil:
		ent.memoTried = true
		memo, err := e.machine.CaptureGrid(t.grid)
		if err != nil {
			return err
		}
		ent.memo = memo
	default:
		if err := e.machine.RunGrid(t.grid); err != nil {
			return err
		}
	}
	e.retireReplayed(t, ent)
	return nil
}

// retireReplayed is the bookkeeping of a replay hit whose functional
// effect is in memory and whose start and end cycles are set: the entry's
// memoized record goes to the ticket and into the engine totals through
// the same two helpers a detailed retirement uses. Shared by the
// per-launch path (finishReplay) and the batch rung (replayBatch), so the
// two cannot diverge on it.
func (e *Engine) retireReplayed(t *Ticket, ent *replayEntry) {
	t.record(ent.instrs, ent.segs, ent.mem)
	e.stats.add(ent.instrs, ent.mem)
	t.stats.Cycles = t.endCycle - t.startCycle
	t.stats.Replayed = true
	t.done = true
	e.stats.ReplayedCycles += t.stats.Cycles
}

// foldRun takes kernel id's record out of the cores' and partitions'
// shards and adds it to the engine totals — the one place a detailed
// kernel's counters are read, so totals are sums of records by
// construction (segs has no total: it lives in the kernel log only). Runs
// on the coordinator between cycle phases (cores and partitions idle), so
// reading the shards is race-free.
func (e *Engine) foldRun(id int) (instrs, segs uint64, mem MemCounters) {
	for _, c := range e.cores {
		instrs += c.runInstrs[id]
		segs += c.runSegs[id]
		c.runInstrs[id], c.runSegs[id] = 0, 0
	}
	for _, pt := range e.parts {
		mem.add(pt.perKernel[id])
		pt.perKernel[id] = MemCounters{}
	}
	e.stats.add(instrs, mem)
	return instrs, segs, mem
}

// finishRun retires a finished grid at cycle now: its record is folded
// out of the shards, assigned to the ticket and, under replay, staged as
// the signature's entry. Shared by the production drain and the legacy
// reference loop so the two cannot quietly diverge on retirement
// accounting.
func (e *Engine) finishRun(r *gridRun, now uint64) {
	t := r.op
	instrs, segs, mem := e.foldRun(r.id)
	t.record(instrs, segs, mem)
	st := &t.stats
	st.Cycles = now + 1 - t.startCycle
	t.done = true
	e.stats.DetailedKernelCycles += st.Cycles
	if e.replay != nil && t.hasSig {
		if t.resample {
			// Re-sampled hit: measure how far the memoized timing has
			// drifted from a fresh detailed run before refreshing it.
			if old := e.replay.entries[t.sig]; old != nil {
				d := st.Cycles - old.cycles
				if old.cycles > st.Cycles {
					d = old.cycles - st.Cycles
				}
				e.stats.ReplayDriftCycles += d
			}
		}
		e.replay.stage(t.sig, replayEntry{cycles: st.Cycles, instrs: instrs, segs: segs, mem: mem})
	}
}

// releaseQueue empties the batch queue, dropping the references each
// retired ticket holds (grid state, preload CTAs, prev/next chains) so a
// long-lived engine does not pin finished kernels in memory through the
// slice backing array. The cores' reusable per-cycle buffers (notably
// retiredSlots, which still holds the last cycle's retired ctaSlots and
// through them the grids) are cleared for the same reason. Callers keep
// their tickets; only the stats and error survive on them.
func (e *Engine) releaseQueue() {
	for i, t := range e.queue {
		t.prev = nil
		t.next = nil
		t.grid = nil
		t.preload = nil
		t.run = nil
		t.copyApply = nil
		t.replayEnt = nil
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.machine = nil
	for _, c := range e.cores {
		c.releaseBatchRefs()
	}
}

// getPool returns the engine's worker pool, rebuilding it only when the
// effective worker count changes (cuDNN workloads launch many kernels;
// spinning goroutines up per launch would be wasted churn). A pool for
// workers <= 1 holds no goroutines at all. Pools with goroutines are tied
// to the engine's lifetime by a GC cleanup, so abandoning an Engine
// without calling Close does not leak them permanently.
func (e *Engine) getPool(workers int) *pool {
	if e.pool == nil || e.pool.workers != workers || e.pool.closed.Load() {
		e.pool.close()
		e.pool = newPool(workers)
		if e.pool.jobs != nil {
			runtime.AddCleanup(e, func(p *pool) { p.close() }, e.pool)
		}
	}
	return e.pool
}

// Close releases the engine's worker goroutines. It is safe to call more
// than once and to keep reading Stats/Partitions afterwards; a subsequent
// kernel launch simply rebuilds the pool.
func (e *Engine) Close() { e.pool.close() }

// abortBatch restores the engine to a reusable state after a failure:
// every unfinished ticket is marked failed and takes the record of what it
// had counted, the cores' shards are merged — the stall ledgers settled up
// to the current cycle, so the series hold what the per-cycle walk had
// charged — and resident CTAs are dropped from every core. runID
// attributes the failure to a specific kernel (-1 when unknown). Returns
// the error recorded on the faulting ticket.
func (e *Engine) abortBatch(cause error, runID int) error {
	name := "?"
	var faulty *Ticket
	for _, t := range e.queue {
		if t.kind == opKernel && t.run.id == runID {
			faulty = t
			name = t.grid.Kernel.Name
			break
		}
	}
	err := fmt.Errorf("timing: kernel %s: %w", name, cause)
	if _, named := cause.(*exec.RunawayError); named || faulty == nil {
		err = cause
	}
	for _, t := range e.queue {
		if t.done {
			continue
		}
		if t.kind == opKernel {
			// what the kernel counted before the abort stays its own, and
			// cannot be misattributed to the next batch
			t.record(e.foldRun(t.run.id))
		}
		if t == faulty {
			t.err = err
		} else {
			t.err = fmt.Errorf("timing: aborted by failure in the same batch: %w", cause)
		}
		t.done = true
	}
	e.mergeShards()
	for _, c := range e.cores {
		// retiredSlots/memQ/atomQ backing refs are cleared by the
		// releaseQueue call below (releaseBatchRefs per core).
		c.reset()
	}
	// drop the killed in-flight copies' engine occupancy so it cannot
	// leak into the next batch's transfer start times
	if e.copyBusyUntil > e.cycle {
		e.copyBusyUntil = e.cycle
	}
	if e.replay != nil {
		// Never memoize timing measured in an aborted batch.
		e.replay.discard()
	}
	e.releaseQueue()
	return err
}

// mergeShards folds what is not per kernel — the cores' statistic shards,
// the partitions' writeback counts — into the engine-wide accumulators at
// a batch boundary, settling every scheduler's stall ledger up to the
// current cycle first. The per-kernel records are empty by now: every
// kernel of the batch retired or was aborted.
func (e *Engine) mergeShards() {
	for _, c := range e.cores {
		for i := range c.scheds {
			c.scheds[i].settle(c.stats, e.cycle)
		}
		e.stats.merge(c.stats)
		c.stats.reset()
	}
	for _, p := range e.parts {
		e.stats.L2Writebacks += p.l2Writebacks
		p.l2Writebacks = 0
	}
}
