package exec_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/hwmodel"
	"repro/internal/timing"
)

// spin loops on a condition that always holds; mark stores 7 to x[0];
// halfbar is what deadlocks a real GPU: its second warp leaves before the
// barrier the first one waits at, then the first stores 9 to x[0].
const spinPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry spin()
{
	.reg .pred %p<2>;
	.reg .b32 %r<2>;
	mov.u32 %r1, 0;
LOOP:
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra LOOP;
	ret;
}
.visible .entry mark(.param .u64 pX)
{
	.reg .b64 %rd<2>;
	ld.param.u64 %rd1, [pX];
	st.global.u32 [%rd1], 7;
	ret;
}
.visible .entry halfbar(.param .u64 pX)
{
	.reg .pred %p<2>;
	.reg .b32 %r<2>;
	.reg .b64 %rd<2>;
	mov.u32 %r1, %tid.x;
	setp.ge.u32 %p1, %r1, 32;
	@%p1 bra OUT;
	bar.sync 0;
	ld.param.u64 %rd1, [pX];
	st.global.u32 [%rd1], 9;
OUT:
	ret;
}
`

// entryPoints are the ways a grid gets executed. The functional ones run
// exec's one CTA loop, the hardware oracle included (it used to carry a
// copy without the loop's error exits); Timing is the cycle-level engine,
// which steps warps itself. All of them meet the guard in StepWarp.
var entryPoints = []string{"RunGrid", "CaptureGrid", "FunctionalRunner", "Oracle", "Timing"}

// launcher returns a function that runs a grid through the named entry
// point; the timing engine is made once, so later launches reuse it.
func launcher(t *testing.T, via string) func(g *exec.Grid) error {
	var run cudart.Runner
	switch via {
	case "RunGrid":
		return func(g *exec.Grid) error { return g.Machine().RunGrid(g) }
	case "CaptureGrid":
		return func(g *exec.Grid) error { _, err := g.Machine().CaptureGrid(g); return err }
	case "FunctionalRunner":
		run = cudart.FunctionalRunner{}
	case "Oracle":
		run = hwmodel.GTX1050()
	default:
		eng, err := timing.New(timing.GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		run = timing.Runner{E: eng}
	}
	return func(g *exec.Grid) error { _, err := run.RunKernel(g); return err }
}

// TestRunawayGuard: a kernel that never terminates comes back from every
// entry point as a RunawayError naming kernel, CTA and warp, and the next
// launch on the same machine runs normally.
func TestRunawayGuard(t *testing.T) {
	const ceiling = 1000
	for _, via := range entryPoints {
		t.Run(via, func(t *testing.T) {
			ctx := cudart.NewContext(exec.BugSet{})
			exec.SetWarpInstrCeiling(ctx.M, ceiling)
			mod, err := ctx.RegisterModule(spinPTX)
			if err != nil {
				t.Fatal(err)
			}
			px, err := ctx.Malloc(4)
			if err != nil {
				t.Fatal(err)
			}
			run := launcher(t, via)
			launch := func(kernel string, params []byte) error {
				g, err := ctx.M.NewGrid(mod.Kernels[kernel], exec.Dim3{X: 3}, exec.Dim3{X: 64}, params, 0)
				if err != nil {
					t.Fatal(err)
				}
				return run(g)
			}
			err = launch("spin", nil)
			var runaway *exec.RunawayError
			if !errors.As(err, &runaway) {
				t.Fatalf("spin kernel returned %v, want a RunawayError", err)
			}
			if *runaway != (exec.RunawayError{Kernel: "spin", CTA: 0, Warp: 0, Instrs: ceiling}) {
				t.Errorf("RunawayError = %+v, want spin, CTA 0, warp 0 after %d instructions", *runaway, ceiling)
			}
			if err := launch("mark", cudart.NewParams().Ptr(px).Bytes()); err != nil {
				t.Fatalf("launch after the runaway failed: %v", err)
			}
			var got [4]byte
			ctx.MemcpyDtoH(got[:], px)
			if got[0] != 7 {
				t.Errorf("x[0] = %d after the follow-up launch, want 7", got[0])
			}
		})
	}
}

// TestBarrierDeadlock: a barrier is released when every warp still alive
// has arrived, so a CTA whose other warps have exited does not hang — the
// rule that makes RunCTA's "deadlocked" exit unreachable from PTX. Every
// entry point finishes such a kernel, and the store behind the barrier
// lands.
func TestBarrierDeadlock(t *testing.T) {
	for _, via := range entryPoints {
		t.Run(via, func(t *testing.T) {
			ctx := cudart.NewContext(exec.BugSet{})
			mod, err := ctx.RegisterModule(spinPTX)
			if err != nil {
				t.Fatal(err)
			}
			px, err := ctx.Malloc(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ctx.M.NewGrid(mod.Kernels["halfbar"], exec.Dim3{X: 3}, exec.Dim3{X: 64}, cudart.NewParams().Ptr(px).Bytes(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := launcher(t, via)(g); err != nil {
				t.Fatalf("halfbar: %v", err)
			}
			var got [4]byte
			ctx.MemcpyDtoH(got[:], px)
			if got[0] != 9 {
				t.Errorf("x[0] = %d, want the 9 stored behind the barrier", got[0])
			}
		})
	}
}

// drainPTX: work is a register-only counted loop whose 16 KiB of shared
// memory lets an SM hold four of its CTAs, so a grid of it leaves room
// for another stream's; fill stores out[gid] = 3*gid.
const drainPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry work(.param .u32 pIters)
{
	.reg .pred %p<2>;
	.reg .b32 %r<4>;
	.shared .align 4 .b8 pad[16384];
	ld.param.u32 %r1, [pIters];
	mov.u32 %r2, %tid.x;
	mov.u32 %r3, 0;
LOOP:
	setp.ge.u32 %p1, %r3, %r1;
	@%p1 bra DONE;
	mad.lo.s32 %r2, %r2, 3, %r3;
	add.u32 %r3, %r3, 1;
	bra LOOP;
DONE:
	ret;
}
.visible .entry fill(.param .u64 pOut)
{
	.reg .b32 %r<5>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %ctaid.x;
	mov.u32 %r2, %ntid.x;
	mov.u32 %r3, %tid.x;
	mad.lo.u32 %r1, %r1, %r2, %r3;
	mul.lo.u32 %r4, %r1, 3;
	mul.wide.u32 %rd1, %r1, 4;
	ld.param.u64 %rd2, [pOut];
	add.u64 %rd2, %rd2, %rd1;
	st.global.u32 [%rd2], %r4;
	ret;
}
`

// TestRunawayMidDrain: the runaway guard stops a kernel on stream 1 while
// stream 0's grid has CTAs resident, in a batch that follows one whose
// retired CTAs left their storage on the engine's free list. The batch
// fails with the RunawayError, stream 0's launch counted part of its work
// and failed with it, and the next batch on the same engine gives the
// cycles, per-launch statistics and memory of the same batch on a fresh
// engine: the abort left nothing behind, its resident warps included.
func TestRunawayMidDrain(t *testing.T) {
	const ceiling, workCTAs, fillThreads = 1000, 400, 4096
	type batch struct {
		stats  []cudart.KernelStats
		cycles uint64
		out    []byte
	}
	// setup gives a context with the runaway ceiling, drainPTX and spinPTX
	// loaded and the fill buffer allocated, an engine, and submit, which
	// queues a launch of one of their kernels on it.
	setup := func() (ctx *cudart.Context, eng *timing.Engine, out uint64, submit func(kernel string, stream int, grid, block int, params []byte) *timing.Ticket) {
		ctx = cudart.NewContext(exec.BugSet{})
		exec.SetWarpInstrCeiling(ctx.M, ceiling)
		drain, err := ctx.RegisterModule(drainPTX)
		if err != nil {
			t.Fatal(err)
		}
		spin, err := ctx.RegisterModule(spinPTX)
		if err != nil {
			t.Fatal(err)
		}
		if out, err = ctx.Malloc(4 * fillThreads); err != nil {
			t.Fatal(err)
		}
		if eng, err = timing.New(timing.GTX1050(), timing.WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		submit = func(kernel string, stream int, grid, block int, params []byte) *timing.Ticket {
			k := drain.Kernels[kernel]
			if k == nil {
				k = spin.Kernels[kernel]
			}
			g, err := ctx.M.NewGrid(k, exec.Dim3{X: grid}, exec.Dim3{X: block}, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := eng.Submit(g, stream)
			if err != nil {
				t.Fatal(err)
			}
			return tk
		}
		return ctx, eng, out, submit
	}
	work := cudart.NewParams().U32(20).Bytes()
	// next is the batch compared: work on stream 0 beside fill on stream 1.
	next := func(ctx *cudart.Context, eng *timing.Engine, out uint64, submit func(string, int, int, int, []byte) *timing.Ticket) batch {
		tks := []*timing.Ticket{
			submit("work", 0, workCTAs, 64, work),
			submit("fill", 1, fillThreads/128, 128, cudart.NewParams().Ptr(out).Bytes()),
		}
		start := eng.Cycle()
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
		b := batch{cycles: eng.Cycle() - start, out: make([]byte, 4*fillThreads)}
		for _, tk := range tks {
			st, err := tk.Stats()
			if err != nil {
				t.Fatal(err)
			}
			b.stats = append(b.stats, st)
		}
		ctx.MemcpyDtoH(b.out, out)
		return b
	}

	ctx, eng, out, submit := setup()
	submit("work", 0, workCTAs, 64, work)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	full := submit("work", 0, workCTAs, 64, work)
	submit("spin", 1, 5, 32, nil)
	err := eng.Drain()
	var runaway *exec.RunawayError
	if !errors.As(err, &runaway) || runaway.Kernel != "spin" {
		t.Fatalf("the batch returned %v, want spin's RunawayError", err)
	}
	st, err := full.Stats()
	if err == nil {
		t.Fatal("stream 0's launch retired in the aborted batch")
	}
	if st.WarpInstrs == 0 {
		t.Fatalf("stream 0's launch issued nothing before the abort (%v): no CTA of it was resident", err)
	}
	got := next(ctx, eng, out, submit)

	want := next(setup())
	if got.cycles != want.cycles || !slices.Equal(got.stats, want.stats) || !bytes.Equal(got.out, want.out) {
		t.Errorf("after the abort: %d cycles, statistics %+v; a fresh engine: %d cycles, %+v (memory equal: %v)",
			got.cycles, got.stats, want.cycles, want.stats, bytes.Equal(got.out, want.out))
	}
	if full := want.stats[0].WarpInstrs; st.WarpInstrs >= full {
		t.Errorf("stream 0's launch counted %d warp instructions before the abort, as many as a whole run (%d)", st.WarpInstrs, full)
	}
	t.Logf("stream 0 counted %d of %d warp instructions before the abort; the next batch ran %d cycles", st.WarpInstrs, want.stats[0].WarpInstrs, got.cycles)
}
