package timing

import (
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// aluLoopPTX is a 1-CTA register-only counted loop: no memory instruction,
// so a drain cycle is the issue stage alone.
const aluLoopPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry aluloop(.param .u32 pIters)
{
	.reg .pred %p<2>;
	.reg .b32 %r<6>;
	ld.param.u32 %r1, [pIters];
	mov.u32 %r2, %tid.x;
	mov.u32 %r3, 0;
LOOP:
	setp.ge.u32 %p1, %r3, %r1;
	@%p1 bra DONE;
	mad.lo.s32 %r2, %r2, 3, %r3;
	and.b32 %r2, %r2, 1023;
	add.u32 %r3, %r3, 1;
	bra LOOP;
DONE:
	ret;
}
`

// TestDrainCycleAllocatesNothing guards the steady state of Engine.Drain:
// whatever one launch allocates (CTA state, the ticket, statistics
// buckets sized by the sampling interval) must not grow with the number
// of cycles it simulates. The stage bodies handed to the worker pool used
// to be rebuilt — and heap-allocated — every cycle.
func TestDrainCycleAllocatesNothing(t *testing.T) {
	cfg := GTX1050()
	cfg.SampleInterval = 0 // the time series grow by design
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(aluLoopPTX)
	if err != nil {
		t.Fatal(err)
	}
	launch := func(iters uint32) (allocs float64, cycles uint64) {
		g, err := ctx.M.NewGrid(mod.Kernels["aluloop"], exec.Dim3{X: 1}, exec.Dim3{X: 64}, cudart.NewParams().U32(iters).Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() {
			st, err := eng.RunGrid(g)
			if err != nil {
				t.Fatal(err)
			}
			cycles = st.Cycles
		})
		return allocs, cycles
	}
	shortAllocs, shortCycles := launch(16)
	longAllocs, longCycles := launch(16 * 64)
	if longCycles < 32*shortCycles {
		t.Fatalf("long launch ran %d cycles against %d: not a longer drain", longCycles, shortCycles)
	}
	if longAllocs > shortAllocs {
		t.Errorf("%d extra cycles cost %.0f extra allocations (%.0f vs %.0f per launch): a drain cycle allocates",
			longCycles-shortCycles, longAllocs-shortAllocs, longAllocs, shortAllocs)
	}
}

// TestLaunchAllocationsBoundedByResidency guards the dispatcher's CTA free
// list: a grid's blocks run through the register files, warp contexts and
// scoreboards of the blocks that retired before them, so what a launch
// allocates is set by how many CTAs the machine holds at once, not by how
// many the grid has.
func TestLaunchAllocationsBoundedByResidency(t *testing.T) {
	cfg := GTX1050()
	cfg.SampleInterval = 0 // the time series grow by design
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(aluLoopPTX)
	if err != nil {
		t.Fatal(err)
	}
	launch := func(ctas int) float64 {
		g, err := ctx.M.NewGrid(mod.Kernels["aluloop"], exec.Dim3{X: ctas}, exec.Dim3{X: 64}, cudart.NewParams().U32(4).Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.RunGrid(g); err != nil {
				t.Fatal(err)
			}
		})
	}
	resident := cfg.NumSMs * cfg.MaxCTAsPerSM // 2-warp CTAs: the CTA cap binds before the warp cap
	twice := launch(2 * resident)             // every slot allocated once, then recycled once
	many := launch(16 * resident)
	if many > twice {
		t.Errorf("%d CTAs cost %.0f allocations per launch against %.0f for %d, on a machine that holds %d: blocks past residency allocate",
			16*resident, many, twice, 2*resident, resident)
	}
}
