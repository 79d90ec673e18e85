package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// This file locks the active-set scheduler (schedule.go) to the drain
// semantics it replaced. drainLegacyForTest is the pre-rewrite drain
// loop, kept verbatim as the reference implementation: it re-scans the
// whole submission queue every simulated cycle (copy completion,
// admission, copy-wake), which is O(|queue|) per cycle but trivially
// correct with respect to the stream-ordered submission contract.
// TestDrainEquivalence runs randomized kernel/copy mixes through both
// loops and demands byte-identical cycles, per-ticket stats, engine
// counters and final device memory.

// drainLegacyForTest is the old Engine.Drain. Apart from the deliberate
// deviations flagged inline (stream linking inlined, the fast-forward
// observability counter and stall-ledger settling, forcing the dispatcher
// dirty flag so the reference keeps its original every-cycle
// unconditional fill), the body is the pre-active-set code unchanged: in
// particular it steps every core on every stepped cycle, where production
// visits only the cores with something due. afterCycle, when not nil,
// runs at the end of every stepped cycle, before the clock moves: the
// scheduler invariant check (scheduler_test.go) hooks in there.
func (e *Engine) drainLegacyForTest(workers int, afterCycle func(now uint64)) error {
	if len(e.queue) == 0 {
		return nil
	}
	m := e.machine

	// deviation (PR 5, PR 24): dense kernel ids and the per-kernel
	// counter shards of cores and partitions are opened by the engine's
	// own helper; both loops must size them or retirement attribution
	// would diverge.
	e.sizeShards()
	// deviation: the old linkStreams helper, inlined (production now
	// links prev/next in newSchedule).
	last := make(map[int]*Ticket)
	for _, t := range e.queue {
		t.prev = last[t.stream]
		last[t.stream] = t
	}
	if workers == 0 {
		workers = e.workers
	} else if workers < 0 {
		workers = runtime.NumCPU()
	}
	p := e.getPool(workers)

	var disp dispatcher
	nCores := len(e.cores)
	nParts := len(e.parts)
	deadline := e.cycle + 2_000_000_000 // runaway guard

	for {
		// Complete in-flight copies (running their functional memory
		// effect now that the modelled transfer has finished) and check
		// for overall completion.
		allDone := true
		for _, t := range e.queue {
			if t.done {
				continue
			}
			if t.kind == opCopy && t.admitted && e.cycle >= t.endCycle {
				if t.copyApply != nil {
					t.copyApply()
					t.copyApply = nil
				}
				t.cycles = t.endCycle - t.startCycle
				t.done = true
				continue
			}
			allDone = false
		}
		if allDone {
			break
		}

		// Admit operations whose stream predecessor has retired, in
		// submission order (the deterministic stream-ordered policy).
		for _, t := range e.queue {
			if t.done || t.admitted || (t.prev != nil && !t.prev.done) {
				continue
			}
			if t.kind == opKernel {
				t.startCycle = e.cycle
				disp.admit(t.run)
				t.admitted = true
			} else {
				start := e.cycle
				if e.copyBusyUntil > start {
					start = e.copyBusyUntil
				}
				t.startCycle = start
				t.endCycle = start + e.copyCycles(t.copyBytes)
				e.copyBusyUntil = t.endCycle
				t.admitted = true
			}
		}

		// deviation: production gates fill on dispatcher.dirty; the
		// reference keeps the old every-cycle unconditional fill, so the
		// differential stays sensitive to a missed dirty-flag event.
		disp.dirty = true
		disp.fill(&e.cfg, e.cores)

		if len(disp.runs) == 0 {
			// Only copies in flight: jump to the earliest completion.
			wake := ^uint64(0)
			for _, t := range e.queue {
				if !t.done && t.kind == opCopy && t.admitted && t.endCycle < wake {
					wake = t.endCycle
				}
			}
			if wake == ^uint64(0) {
				return e.abortBatch(fmt.Errorf("timing: drain stalled with pending work"), -1)
			}
			// deviation: the engine's clock-jump helper, which also bumps
			// the new loop's observability counter and settles the stall
			// ledgers (PR 25) so whole-Stats comparison stays byte-exact.
			e.jumpTo(wake)
			continue
		}

		if e.cycle > deadline {
			return e.abortBatch(fmt.Errorf("timing: exceeded cycle budget (deadlock?)"), -1)
		}
		now := e.cycle

		// Phase 1: parallel issue stage.
		p.run(nCores, func(i int) { e.cores[i].stageIssue(m, now) })

		anyIssued := false
		anyMem := false
		progressAt := uint64(^uint64(0))
		for _, c := range e.cores {
			if c.err != nil {
				e.settleStepped(now) // deviation (PR 25): the stall ledger's abort charge
				return e.abortBatch(c.err, c.errRunID)
			}
			// Phase 2: sequential atomic drain, core id order.
			for _, w := range c.atomQ {
				if err := c.issue(m, w, now); err != nil {
					e.settleStepped(now) // deviation (PR 25): as above
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
			// CTA retirement, attributed per grid in canonical core order.
			for _, s := range c.retiredSlots {
				s.run.retireCTA(s)
			}
		}

		if anyMem {
			for _, pt := range e.parts {
				pt.queue = pt.queue[:0]
			}
			for _, c := range e.cores {
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
			p.run(nParts, func(i int) { e.parts[i].drain(&e.cfg) })
			// deviation: the memory stage's failure, which used to panic
			if id, err := e.partitionFault(); err != nil {
				e.settleStepped(now)
				return e.abortBatch(err, id)
			}
			// Phase 4: parallel scoreboard/L1 apply.
			p.run(nCores, func(i int) { e.cores[i].applyMem(now) })
		}

		// Retire finished grids in submission order. deviation (PR 5):
		// retirement accounting (instruction shards + per-partition
		// memory-counter shards) moved into the shared finishRun helper
		// so the reference cannot quietly diverge from production on the
		// new per-kernel memory attribution.
		for _, r := range disp.runs {
			if r.finished() && !r.op.done {
				e.finishRun(r, now)
			}
		}
		disp.retire()

		if afterCycle != nil {
			afterCycle(now)
		}
		e.cycle++
		if !anyIssued {
			// fast-forward over a fully stalled machine.
			wake := progressAt
			for _, t := range e.queue {
				if !t.done && t.kind == opCopy && t.admitted && t.endCycle < wake {
					wake = t.endCycle
				}
			}
			if wake != ^uint64(0) {
				e.jumpTo(wake) // deviation: as above
			}
		}
	}

	e.mergeShards()
	e.releaseQueue()
	return nil
}

// eqPTX is the differential workload kernel: y[i] += x[i]*x[i], with a
// bounds check so partial-tail grids diverge per-lane.
const eqPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry sqadd(
	.param .u64 pX,
	.param .u64 pY,
	.param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<5>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<6>;

	ld.param.u64 %rd1, [pX];
	ld.param.u64 %rd2, [pY];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.u32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	mul.wide.u32 %rd3, %r5, 4;
	add.s64 %rd4, %rd1, %rd3;
	add.s64 %rd5, %rd2, %rd3;
	ld.global.f32 %f2, [%rd4];
	ld.global.f32 %f3, [%rd5];
	fma.rn.f32 %f4, %f2, %f2, %f3;
	st.global.f32 [%rd5], %f4;
DONE:
	ret;
}
`

const eqBufN = 256 // floats per per-stream accumulator buffer

// eqOp is one planned ticket: a kernel (y_s[i] += x[i]^2 over the first
// n elements, x drawn from the seed) or a host-device copy overwriting
// the first n floats of the stream's buffer (n may be 0).
type eqOp struct {
	stream int
	kernel bool
	n      int
	data   []float32
}

// eqPlan derives a randomized ticket mix from a seed: 1-4 streams,
// 8-40 operations, ~1/3 copies (including zero-size ones).
func eqPlan(seed int64) (ops []eqOp, streams int) {
	rng := rand.New(rand.NewSource(seed))
	streams = 1 + rng.Intn(4)
	nOps := 8 + rng.Intn(33)
	for i := 0; i < nOps; i++ {
		op := eqOp{stream: rng.Intn(streams)}
		if rng.Intn(3) > 0 {
			op.kernel = true
			op.n = []int{64, 160, eqBufN}[rng.Intn(3)]
			op.data = make([]float32, op.n)
			for j := range op.data {
				op.data[j] = float32(rng.Intn(64))*0.125 - 2
			}
		} else {
			op.n = []int{0, 32, eqBufN}[rng.Intn(3)]
			op.data = make([]float32, op.n)
			for j := range op.data {
				op.data[j] = float32(rng.Intn(64))*0.25 - 4
			}
		}
		ops = append(ops, op)
	}
	return ops, streams
}

// eqResult captures everything the differential compares.
type eqResult struct {
	Cycles  uint64
	Tickets []cudart.KernelStats
	Outputs [][]float32
	Stats   Stats
}

// runEqPlan executes a plan against a fresh context + engine. serialize
// folds every operation onto stream 0 (the strict submission-order
// semantics); legacy drains with the reference loop instead of the
// active-set scheduler.
func runEqPlan(t *testing.T, ops []eqOp, streams int, serialize, legacy bool) eqResult {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ctx.RegisterModule(eqPTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("sqadd")
	if err != nil {
		t.Fatal(err)
	}

	bufs := make([]uint64, streams)
	for s := range bufs {
		init := make([]float32, eqBufN)
		for i := range init {
			init[i] = float32((i+s)%9) * 0.5
		}
		bufs[s], _ = ctx.Malloc(4 * eqBufN)
		ctx.MemcpyF32HtoD(bufs[s], init)
	}

	var tickets []*Ticket
	for _, op := range ops {
		stream := op.stream
		if serialize {
			stream = 0
		}
		if op.kernel {
			px, _ := ctx.Malloc(uint64(4 * op.n))
			ctx.MemcpyF32HtoD(px, op.data)
			p := cudart.NewParams().Ptr(px).Ptr(bufs[op.stream]).U32(uint32(op.n))
			g, err := ctx.M.NewGrid(kern, exec.Dim3{X: (op.n + 63) / 64}, exec.Dim3{X: 64}, p.Bytes(), 0)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := eng.Submit(g, stream)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		} else {
			dst, data := bufs[op.stream], op.data
			tk := eng.SubmitCopy(stream, 4*op.n, func() { ctx.MemcpyF32HtoD(dst, data) })
			tickets = append(tickets, tk)
		}
	}

	if legacy {
		err = eng.drainLegacyForTest(1, func(now uint64) { checkSchedulers(t, eng, ctx.M, now) })
	} else {
		err = eng.Drain()
	}
	if err != nil {
		t.Fatalf("drain (legacy=%v): %v", legacy, err)
	}

	res := eqResult{Cycles: eng.Cycle(), Stats: *eng.Stats()}
	for i, tk := range tickets {
		st, err := tk.Stats()
		if err != nil {
			t.Fatalf("ticket %d failed: %v", i, err)
		}
		res.Tickets = append(res.Tickets, st)
	}
	for s := range bufs {
		res.Outputs = append(res.Outputs, ctx.MemcpyF32DtoH(bufs[s], eqBufN))
	}
	return res
}

// TestCopyCompletionSubmissionOrder pins the corner where admission
// order deviates from submission order: a large copy A (stream 1,
// submitted last) is admitted at cycle 0 and occupies the copy engine
// until cycle E; a zero-size copy B (stream 2, submitted before A) is
// blocked behind a short kernel and admitted mid-flight, starting and
// ending at the engine-busy horizon E. Both transfers complete on the
// same cycle, so their functional memory effects must apply in
// submission order (B then A) — the reference loop's full queue scan
// did, and an active-copy list kept in admission order would not.
func TestCopyCompletionSubmissionOrder(t *testing.T) {
	run := func(legacy bool) []int {
		ctx := cudart.NewContext(exec.BugSet{})
		eng, err := New(GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := ctx.RegisterModule(eqPTX); err != nil {
			t.Fatal(err)
		}
		_, kern, err := ctx.LookupKernel("sqadd")
		if err != nil {
			t.Fatal(err)
		}
		px, _ := ctx.Malloc(4 * 64)
		py, _ := ctx.Malloc(4 * 64)
		ctx.MemcpyF32HtoD(px, make([]float32, 64))
		ctx.MemcpyF32HtoD(py, make([]float32, 64))
		p := cudart.NewParams().Ptr(px).Ptr(py).U32(64)
		g, err := ctx.M.NewGrid(kern, exec.Dim3{X: 1}, exec.Dim3{X: 64}, p.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		if _, err := eng.Submit(g, 2); err != nil { // short kernel, stream 2
			t.Fatal(err)
		}
		eng.SubmitCopy(2, 0, func() { order = append(order, 1) })     // B: zero-size, behind the kernel
		eng.SubmitCopy(1, 1<<20, func() { order = append(order, 2) }) // A: long transfer, admitted at cycle 0
		if legacy {
			err = eng.drainLegacyForTest(1, func(now uint64) { checkSchedulers(t, eng, ctx.M, now) })
		} else {
			err = eng.Drain()
		}
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []int{1, 2} // submission order: B then A
	for _, legacy := range []bool{true, false} {
		if got := run(legacy); !reflect.DeepEqual(got, want) {
			t.Errorf("legacy=%v: copies applied in order %v, want submission order %v", legacy, got, want)
		}
	}
}

// TestResumeFullyRetiredGrid pins the checkpoint-resume corner where a
// grid is admitted with every CTA already retired (skipCTAs == NumCTAs,
// a checkpoint taken exactly at kernel completion): the run finishes in
// a cycle where no scheduler issued and no wakeup exists, which must
// complete cleanly — not trip the time-invariant-state deadlock abort —
// and match the legacy loop's cycle accounting.
func TestResumeFullyRetiredGrid(t *testing.T) {
	run := func(legacy bool) (uint64, cudart.KernelStats) {
		ctx := cudart.NewContext(exec.BugSet{})
		eng, err := New(GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := ctx.RegisterModule(eqPTX); err != nil {
			t.Fatal(err)
		}
		_, kern, err := ctx.LookupKernel("sqadd")
		if err != nil {
			t.Fatal(err)
		}
		px, _ := ctx.Malloc(4 * 64)
		py, _ := ctx.Malloc(4 * 64)
		p := cudart.NewParams().Ptr(px).Ptr(py).U32(64)
		g, err := ctx.M.NewGrid(kern, exec.Dim3{X: 2}, exec.Dim3{X: 32}, p.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := eng.SubmitResume(g, 0, g.NumCTAs(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if legacy {
			err = eng.drainLegacyForTest(1, func(now uint64) { checkSchedulers(t, eng, ctx.M, now) })
		} else {
			err = eng.Drain()
		}
		if err != nil {
			t.Fatalf("drain (legacy=%v) rejected a fully retired resume: %v", legacy, err)
		}
		st, err := tk.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return eng.Cycle(), st
	}
	newCycles, newStats := run(false)
	legCycles, legStats := run(true)
	if newCycles != legCycles || !reflect.DeepEqual(newStats, legStats) {
		t.Errorf("fully retired resume diverged: active-set %d cycles %+v, legacy %d cycles %+v",
			newCycles, newStats, legCycles, legStats)
	}
}

// TestDrainEquivalence is the property-style differential locking the
// active-set scheduler to the replaced semantics: for seeded random
// ticket mixes (kernels + copies over 1-4 streams), (a) the new drain
// and the legacy full-scan drain must agree byte-for-byte on cycles,
// per-ticket stats, engine counters and final device memory, and (b) a
// fully serialized run (every ticket on stream 0, the old pre-stream
// submission-order semantics) must agree on final memory and per-kernel
// instruction counts — cross-stream overlap may change cycles only.
func TestDrainEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ops, streams := eqPlan(seed)
			got := runEqPlan(t, ops, streams, false, false)
			ref := runEqPlan(t, ops, streams, false, true)

			if got.Cycles != ref.Cycles {
				t.Errorf("cycle counts diverged: active-set %d vs legacy %d", got.Cycles, ref.Cycles)
			}
			if !reflect.DeepEqual(got.Tickets, ref.Tickets) {
				t.Errorf("per-ticket stats diverged:\nactive-set: %+v\nlegacy:     %+v", got.Tickets, ref.Tickets)
			}
			if !reflect.DeepEqual(got.Outputs, ref.Outputs) {
				t.Error("final device memory diverged between active-set and legacy drains")
			}
			if !reflect.DeepEqual(got.Stats, ref.Stats) {
				t.Errorf("engine stats diverged:\nactive-set: %+v\nlegacy:     %+v", got.Stats, ref.Stats)
			}

			serial := runEqPlan(t, ops, streams, true, false)
			if !reflect.DeepEqual(got.Outputs, serial.Outputs) {
				t.Error("final device memory diverged between streamed and serialized runs")
			}
			for i := range got.Tickets {
				if got.Tickets[i].WarpInstrs != serial.Tickets[i].WarpInstrs {
					t.Errorf("ticket %d instruction count diverged: streamed %d vs serialized %d",
						i, got.Tickets[i].WarpInstrs, serial.Tickets[i].WarpInstrs)
				}
			}
		})
	}
}
