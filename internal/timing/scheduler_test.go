package timing

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// This file holds the event-driven issue stage (scoreboard.go) to the
// all-candidates scan it replaced. checkSchedulers recomputes, after
// every cycle of the legacy drain loop, what that scan would have found
// for each resident warp — from the warp's functional flags, its
// scoreboard and a from-scratch walk of the ptx operand lists — and
// compares it with the scheduler's ready set, parked kinds, wake cycles
// and counts, its stall ledger, and the core's hot flag and nextAt that
// decide whether production visits it. A lost wakeup, a stale ready bit,
// a wake time that moved after it was computed or a sleeping scheduler
// charging the wrong kind fails here, at the cycle it happens, rather
// than as a golden cycle count that drifted.

// refLatest is the reference scoreboard walk (the old srcReady): the cycle
// at which the latest source of in becomes readable, over the guard
// predicate, every Src operand, memory bases and vector elements. The
// scoreboard is indexed by register row, so each slot goes through the
// grid's allocation (exec.Grid.RegMap).
func refLatest(w *warpCtx, in *ptx.Instr) uint64 {
	var latest uint64
	row := w.slot.cta.Grid.RegMap()
	see := func(slot int32) {
		if r := w.regReady[row[slot]]; r > latest {
			latest = r
		}
	}
	if in.PredReg >= 0 {
		see(in.PredReg)
	}
	for i := range in.Src() {
		switch o := &in.Src()[i]; o.Kind {
		case ptx.OperandReg:
			see(o.Reg)
		case ptx.OperandMem:
			if o.Base >= 0 {
				see(o.Base)
			}
		case ptx.OperandVec:
			for _, e := range in.Elems(o) {
				if e.Kind == ptx.OperandReg {
					see(e.Reg)
				}
			}
		}
	}
	return latest
}

// checkSchedulers verifies every core's scheduler state at the end of
// cycle now (issue stage, atomic drain and applyMem all done).
func checkSchedulers(t *testing.T, e *Engine, m *exec.Machine, now uint64) {
	t.Helper()
	for _, c := range e.cores {
		resident := 0
		for _, s := range c.slots {
			resident += len(s.warps)
			if s.check {
				t.Fatalf("cycle %d core %d: CTA %d still flagged for a barrier/retire check", now, c.id, s.cta.Index)
			}
			if s.cta.Done() {
				t.Fatalf("cycle %d core %d: finished CTA %d still resident", now, c.id, s.cta.Index)
			}
			live, waiting := 0, 0
			for _, w := range s.cta.Warps {
				if !w.Done {
					live++
					if w.AtBarrier {
						waiting++
					}
				}
			}
			if waiting == live {
				t.Fatalf("cycle %d core %d: CTA %d has every live warp at the barrier, unreleased", now, c.id, s.cta.Index)
			}
			for wi := range s.warps {
				w := &s.warps[wi]
				sc := c.schedOf(wi)
				if w.pos >= len(sc.cands) || sc.cands[w.pos] != w {
					t.Fatalf("cycle %d core %d: CTA %d warp %d is not its scheduler's candidate %d", now, c.id, s.cta.Index, wi, w.pos)
				}
			}
		}
		if resident != c.warpsUsed {
			t.Fatalf("cycle %d core %d: warpsUsed %d, resident warps %d", now, c.id, c.warpsUsed, resident)
		}

		cands := 0
		nextAt := ^uint64(0)
		hot := false
		for si := range c.scheds {
			sc := &c.scheds[si]
			where := fmt.Sprintf("cycle %d core %d sched %d", now, c.id, si)
			cands += len(sc.cands)
			if sc.rr != 0 && sc.rr >= len(sc.cands) {
				t.Fatalf("%s: rr %d past %d candidates", where, sc.rr, len(sc.cands))
			}

			rearmed := map[*warpCtx]int{}
			for _, w := range sc.rearmed {
				rearmed[w]++
			}
			parked := map[*warpCtx]int{}
			for i, w := range sc.wakeQ {
				parked[w]++
				if i > 0 && sc.wakeQ[(i-1)/2].wake > w.wake {
					t.Fatalf("%s: wakeup queue is not a heap at %d", where, i)
				}
			}
			if len(sc.wakeQ) > 0 && sc.wakeQ[0].wake < nextAt {
				nextAt = sc.wakeQ[0].wake
			}

			var n [numWarpStates]int
			for i, w := range sc.cands {
				n[w.state]++
				if w.pos != i {
					t.Fatalf("%s: candidate %d records position %d", where, i, w.pos)
				}
				if bit := sc.ready[i>>6]>>(i&63)&1 == 1; bit != (w.state == warpReady) {
					t.Fatalf("%s: candidate %d ready bit %v in state %d", where, i, bit, w.state)
				}
				if got, want := rearmed[w], btoi(w.state == warpRearmed); got != want {
					t.Fatalf("%s: candidate %d in state %d is on the re-armed list %d times", where, i, w.state, got)
				}
				if got, want := parked[w], btoi(w.state == warpOnData || w.state == warpOnIssue); got != want {
					t.Fatalf("%s: candidate %d in state %d is in the wakeup queue %d times", where, i, w.state, got)
				}

				// What the all-candidates scan would conclude at the next
				// pick, in its order of tests.
				fw := w.warp
				switch w.state {
				case warpDead:
					if !fw.Done {
						t.Fatalf("%s: candidate %d dead but its warp is live", where, i)
					}
					continue
				case warpRearmed:
					if fw.Done {
						t.Fatalf("%s: candidate %d re-armed but retired", where, i)
					}
					continue // evaluated at the next pick
				}
				if fw.Done {
					t.Fatalf("%s: candidate %d retired in state %d", where, i, w.state)
				}
				if fw.AtBarrier != (w.state == warpAtBarrier) {
					t.Fatalf("%s: candidate %d AtBarrier=%v in state %d", where, i, fw.AtBarrier, w.state)
				}
				if fw.AtBarrier {
					continue
				}
				if w.state == warpOnIssue {
					if w.wake != w.minIssueAt || w.wake <= now {
						t.Fatalf("%s: candidate %d parked on minIssueAt %d until %d", where, i, w.minIssueAt, w.wake)
					}
					continue
				}
				if w.minIssueAt > now {
					t.Fatalf("%s: candidate %d in state %d with minIssueAt %d ahead", where, i, w.state, w.minIssueAt)
				}
				pc := m.PeekPC(w.slot.cta, fw)
				latest := uint64(0)
				if pc >= 0 {
					latest = refLatest(w, &w.slot.cta.Grid.Kernel.Instrs[pc])
				}
				switch w.state {
				case warpReady:
					if w.pc != pc || latest > now {
						t.Fatalf("%s: candidate %d ready at pc %d, sources readable at %d; warp is at pc %d", where, i, w.pc, latest, pc)
					}
				case warpOnData:
					if w.wake != latest || latest <= now {
						t.Fatalf("%s: candidate %d parked on data until %d, sources readable at %d", where, i, w.wake, latest)
					}
				}
			}
			if n != sc.n {
				t.Fatalf("%s: state counts %v, recomputed %v", where, sc.n, n)
			}
			for i := len(sc.cands); i < len(sc.ready)*64; i++ {
				if sc.ready[i>>6]>>(i&63)&1 == 1 {
					t.Fatalf("%s: ready bit %d set past %d candidates", where, i, len(sc.cands))
				}
			}
			if len(sc.rearmed) != n[warpRearmed] || len(sc.wakeQ) != n[warpOnData]+n[warpOnIssue] {
				t.Fatalf("%s: %d re-armed and %d parked entries for counts %v", where, len(sc.rearmed), len(sc.wakeQ), n)
			}

			// The stall ledger: nothing is charged past the next cycle, and
			// a scheduler nothing re-arms or readies — one that sleeps until
			// a wakeup — holds the kind its recounted states imply, the kind
			// every slot of its quiet interval is charged to.
			if sc.from > now+1 {
				t.Fatalf("%s: ledger open from %d, past the next cycle", where, sc.from)
			}
			busy := n[warpRearmed]+n[warpReady] > 0
			hot = hot || busy
			if kind := (&schedState{n: n}).stallKind(); !busy && sc.kind != kind {
				t.Fatalf("%s: ledger kind %s, recounted states %v imply %s", where, StallNames[sc.kind], n, StallNames[kind])
			}
		}
		if cands != resident {
			t.Fatalf("cycle %d core %d: %d candidates for %d resident warps", now, c.id, cands, resident)
		}
		if c.nextAt != nextAt {
			t.Fatalf("cycle %d core %d: nextAt %d, earliest pending wakeup %d", now, c.id, c.nextAt, nextAt)
		}
		// The rule that decides whether the core is visited next cycle.
		if c.hot != hot {
			t.Fatalf("cycle %d core %d: hot %v, some scheduler holds a re-armed or ready warp: %v", now, c.id, c.hot, hot)
		}
	}
}

// TestAddStall pins how the scheduler ledger charges a quiet interval:
// split at every sample-bucket edge, into the shard's rebased buckets,
// with idle spans also counted in IdleSlotCycles.
func TestAddStall(t *testing.T) {
	cases := []struct {
		name           string
		interval, base uint64
		kind           stallKind
		from, span     uint64
		want           []uint64 // the kind's series
		wantIdle       uint64
	}{
		{"inside one bucket", 500, 0, stallData, 10, 100, []uint64{100}, 0},
		{"ending on an edge", 500, 0, stallBarrier, 400, 100, []uint64{100}, 0},
		{"starting on an edge", 500, 0, stallBarrier, 500, 100, []uint64{0, 100}, 0},
		// the span addIdleBulk charges 750 of (ROADMAP open item 19(b))
		{"crossing several edges", 500, 0, stallMem, 250, 1500, []uint64{250, 500, 500, 250}, 0},
		{"rebased shard", 500, 2, stallData, 1200, 600, []uint64{300, 300}, 0},
		{"idle", 500, 0, stallIdle, 0, 700, []uint64{500, 200}, 700},
		{"idle, no series", 0, 0, stallIdle, 3, 40, nil, 40},
		{"empty span", 500, 0, stallMem, 250, 0, nil, 0},
	}
	for _, tc := range cases {
		s := &Stats{interval: tc.interval, base: tc.base}
		s.addStall(tc.kind, tc.from, tc.span)
		if !reflect.DeepEqual(s.stalls[tc.kind], tc.want) || s.IdleSlotCycles != tc.wantIdle {
			t.Errorf("%s: series %v, IdleSlotCycles %d; want %v, %d", tc.name, s.stalls[tc.kind], s.IdleSlotCycles, tc.want, tc.wantIdle)
		}
		for k := range s.stalls {
			if stallKind(k) != tc.kind && s.stalls[k] != nil {
				t.Errorf("%s: charged %s too", tc.name, StallNames[k])
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// schedPTX holds the targeted kernels. Each takes a float buffer with one
// element per thread (and scratch behind it) and is written to put the
// scheduler in one particular corner.
const schedPTX = `
.version 6.0
.target sm_61
.address_size 64

// Nested per-lane divergence with reconvergence: odd lanes take a longer
// path, half of them an SFU op on top, then everyone stores.
.visible .entry diverge(.param .u64 pBuf, .param .u32 pN)
{
	.reg .pred %p<3>;
	.reg .f32 %f<3>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;
	ld.param.u64 %rd1, [pBuf];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %ntid.x;
	mov.u32 %r3, %tid.x;
	mad.lo.s32 %r4, %r1, %r2, %r3;
	mul.wide.u32 %rd2, %r4, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	and.b32 %r5, %r3, 1;
	setp.eq.u32 %p1, %r5, 0;
	@%p1 bra EVEN;
	mul.f32 %f1, %f1, %f1;
	add.f32 %f1, %f1, 0f3F800000;
	and.b32 %r6, %r3, 2;
	setp.eq.u32 %p2, %r6, 0;
	@%p2 bra JOIN;
	rsqrt.approx.f32 %f1, %f1;
	bra JOIN;
EVEN:
	add.f32 %f1, %f1, %f1;
JOIN:
	st.global.f32 [%rd3], %f1;
	ret;
}

// Shared-memory phases: a 256-thread tree reduction, eight warps spread
// over every scheduler, a bar.sync per level and a shrinking set of
// active warps.
.visible .entry phases(.param .u64 pBuf, .param .u32 pN)
{
	.reg .pred %p<3>;
	.reg .f32 %f<4>;
	.reg .b32 %r<10>;
	.reg .b64 %rd<5>;
	.shared .align 4 .b8 sdata[1024];
	ld.param.u64 %rd1, [pBuf];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r1, %tid.x;
	mov.u32 %r8, %ctaid.x;
	mov.u32 %r9, %ntid.x;
	mad.lo.s32 %r9, %r8, %r9, %r1;
	mul.wide.u32 %rd2, %r9, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	mov.u32 %r2, sdata;
	shl.b32 %r3, %r1, 2;
	add.u32 %r4, %r2, %r3;
	st.shared.f32 [%r4], %f1;
	bar.sync 0;
	mov.u32 %r5, 128;
RLOOP:
	setp.eq.u32 %p1, %r5, 0;
	@%p1 bra REND;
	setp.ge.u32 %p2, %r1, %r5;
	@%p2 bra RSKIP;
	shl.b32 %r6, %r5, 2;
	add.u32 %r7, %r4, %r6;
	ld.shared.f32 %f2, [%r7];
	ld.shared.f32 %f1, [%r4];
	add.f32 %f1, %f1, %f2;
	st.shared.f32 [%r4], %f1;
RSKIP:
	bar.sync 0;
	shr.u32 %r5, %r5, 1;
	bra RLOOP;
REND:
	setp.ne.u32 %p1, %r1, 0;
	@%p1 bra DONE;
	ld.shared.f32 %f3, [%r4];
	st.global.f32 [%rd3], %f3;
DONE:
	ret;
}

// Global atomics from every CTA onto four shared counters, the returned
// old value feeding a second atomic: the deferred-atomic path, minIssueAt
// parking and the memory-to-data re-park.
.visible .entry atomics(.param .u64 pBuf, .param .u32 pN)
{
	.reg .f32 %f<4>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<6>;
	ld.param.u64 %rd1, [pBuf];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 3;
	mul.wide.u32 %rd2, %r2, 4;
	add.s64 %rd3, %rd1, %rd2;
	mov.f32 %f1, 0f3F000000;
	atom.global.add.f32 %f2, [%rd3], %f1;
	mul.f32 %f3, %f2, 0f00000000;
	add.f32 %f3, %f3, %f1;
	atom.global.add.f32 %f2, [%rd3+16], %f3;
	ret;
}

// A dependent chain through the SFU and the integer divider.
.visible .entry sfuchain(.param .u64 pBuf, .param .u32 pN)
{
	.reg .f32 %f<4>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;
	ld.param.u64 %rd1, [pBuf];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %ntid.x;
	mov.u32 %r3, %tid.x;
	mad.lo.s32 %r4, %r1, %r2, %r3;
	mul.wide.u32 %rd2, %r4, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	add.u32 %r5, %r4, 7;
	div.u32 %r6, %r5, 3;
	rem.u32 %r7, %r6, 5;
	cvt.rn.f32.u32 %f2, %r7;
	add.f32 %f1, %f1, %f2;
	mul.f32 %f1, %f1, %f1;
	add.f32 %f1, %f1, 0f3F800000;
	lg2.approx.f32 %f1, %f1;
	ex2.approx.f32 %f1, %f1;
	rsqrt.approx.f32 %f1, %f1;
	div.rn.f32 %f1, %f1, 0f40000000;
	st.global.f32 [%rd3], %f1;
	ret;
}

// Even CTAs return at once; odd CTAs chase a dependent chain of global
// loads. The short CTAs retire — compacting the candidate lists and
// recycling their slots — while their neighbours sit parked on data.
.visible .entry mixed(.param .u64 pBuf, .param .u32 pN)
{
	.reg .pred %p<2>;
	.reg .f32 %f<3>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<5>;
	mov.u32 %r1, %ctaid.x;
	and.b32 %r5, %r1, 1;
	setp.eq.u32 %p1, %r5, 0;
	@%p1 bra DONE;
	ld.param.u64 %rd1, [pBuf];
	cvta.to.global.u64 %rd1, %rd1;
	mov.u32 %r2, %ntid.x;
	mov.u32 %r3, %tid.x;
	mad.lo.s32 %r4, %r1, %r2, %r3;
	mul.wide.u32 %rd2, %r4, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	cvt.rzi.u32.f32 %r6, %f1;
	and.b32 %r6, %r6, 1023;
	mul.wide.u32 %rd4, %r6, 4;
	add.s64 %rd4, %rd1, %rd4;
	ld.global.f32 %f2, [%rd4];
	cvt.rzi.u32.f32 %r6, %f2;
	and.b32 %r6, %r6, 1023;
	mul.wide.u32 %rd4, %r6, 4;
	add.s64 %rd4, %rd1, %rd4;
	ld.global.f32 %f2, [%rd4];
	add.f32 %f1, %f1, %f2;
	st.global.f32 [%rd3], %f1;
DONE:
	ret;
}
`

// schedRun is what the two drain loops must agree on for one launch.
type schedRun struct {
	Cycles uint64
	Ticket cudart.KernelStats
	Stats  Stats
	Out    []float32
}

// runSchedKernel launches one schedPTX kernel over ctas×threads on a fresh
// engine; with legacy set it drains through the reference loop, checking
// the scheduler invariants after every cycle.
func runSchedKernel(t *testing.T, name string, ctas, threads int, legacy bool) schedRun {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ctx.RegisterModule(schedPTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	n := ctas * threads
	if n < 1024 {
		n = 1024 // mixed indexes the first 1024 floats
	}
	init := make([]float32, n)
	for i := range init {
		init[i] = float32((i*7)%1024) + 0.5
	}
	buf, _ := ctx.Malloc(uint64(4 * n))
	ctx.MemcpyF32HtoD(buf, init)
	p := cudart.NewParams().Ptr(buf).U32(uint32(n))
	g, err := ctx.M.NewGrid(kern, exec.Dim3{X: ctas}, exec.Dim3{X: threads}, p.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if legacy {
		err = eng.drainLegacyForTest(1, func(now uint64) { checkSchedulers(t, eng, ctx.M, now) })
	} else {
		err = eng.Drain()
	}
	if err != nil {
		t.Fatalf("%s (legacy=%v): %v", name, legacy, err)
	}
	st, err := tk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return schedRun{Cycles: eng.Cycle(), Ticket: st, Stats: *eng.Stats(), Out: ctx.MemcpyF32DtoH(buf, n)}
}

// TestSchedulerInvariants drives each targeted kernel through the
// invariant-checked reference loop and demands the production drain agree
// with it on cycles, statistics and memory.
func TestSchedulerInvariants(t *testing.T) {
	cases := []struct {
		kernel        string
		ctas, threads int
		// sawStall names a stall kind the corner must actually produce.
		sawStall stallKind
	}{
		{"diverge", 12, 96, stallData},
		{"phases", 14, 256, stallBarrier},
		{"atomics", 10, 64, stallMem},
		{"sfuchain", 24, 128, stallData},
		{"mixed", 60, 64, stallData},
	}
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			ref := runSchedKernel(t, tc.kernel, tc.ctas, tc.threads, true)
			got := runSchedKernel(t, tc.kernel, tc.ctas, tc.threads, false)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("production drain diverged from the checked reference loop:\n got %d cycles %+v\nwant %d cycles %+v",
					got.Cycles, got.Ticket, ref.Cycles, ref.Ticket)
			}
			if StallTotals(&ref.Stats)[tc.sawStall] == 0 {
				t.Errorf("kernel never produced a %s slot: the corner it exists for was not reached", StallNames[tc.sawStall])
			}
		})
	}
}
