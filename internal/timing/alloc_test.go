package timing

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/torch"
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
// to be rebuilt — and heap-allocated — every cycle, and so was the pool's
// per-run job state. The grid puts a CTA on every SM, so at -j2 every
// stage of every cycle goes through the pool.
func TestDrainCycleAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			cfg := GTX1050()
			cfg.SampleInterval = 0 // the time series grow by design
			eng, err := New(cfg, WithWorkers(workers))
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
				g, err := ctx.M.NewGrid(mod.Kernels["aluloop"], exec.Dim3{X: cfg.NumSMs}, exec.Dim3{X: 64}, cudart.NewParams().U32(iters).Bytes(), 0)
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
		})
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

// workProbe wraps the engine's runner and counts the heap allocations
// made inside Submit and inside Drain.
type workProbe struct {
	Runner
	submits, submitAllocs, drainAllocs uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (p *workProbe) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	before := mallocs()
	tk, err := p.Runner.SubmitKernel(g, stream)
	p.submitAllocs += mallocs() - before
	p.submits++
	return tk, err
}

func (p *workProbe) DrainAll() error {
	before := mallocs()
	err := p.Runner.DrainAll()
	p.drainAllocs += mallocs() - before
	return err
}

// TestWarmBatchWork pins what a warm batch of the sample workload (4
// sequences x 12 tokens on 4 streams, 204 launches) costs the engine once
// the replay cache's batch rung has it: Drain allocates nothing and
// validates the batch's composed read-set — the weights once, no
// activation — where the per-launch path validated every launch's
// read-set; and Submit allocates one object per launch, the signature's
// parameter string.
func TestWarmBatchWork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // no other goroutine allocates while a probe counts
	cfg := GTX1050()
	cfg.ReplayEnabled = true
	cfg.SampleInterval = 0 // the time series grow by design
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &workProbe{Runner: Runner{E: eng}}
	dev.Ctx.SetRunner(probe)
	mcfg := torch.SampleTransformerConfig()
	enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(7)), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[uint64]bool{}
	for _, a := range dev.Ctx.Alloc.LiveAllocations() {
		pinned[a] = true
	}
	batch := make([][]int32, 4)
	for i := range batch {
		batch[i] = make([]int32, 12)
		for j := range batch[i] {
			batch[i][j] = int32((i*7 + j*3) % mcfg.Vocab)
		}
	}
	// iterate runs one forward batch and frees what it allocated, and
	// returns the read-set bytes the engine validated meanwhile.
	iterate := func() uint64 {
		before := ReplayValidatedBytes(eng)
		if _, err := enc.ForwardBatch(batch, true); err != nil {
			t.Fatal(err)
		}
		for _, a := range dev.Ctx.Alloc.LiveAllocations() {
			if !pinned[a] {
				if err := dev.Ctx.Free(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ReplayValidatedBytes(eng) - before
	}
	iterate()              // detailed
	iterate()              // replay hits capture their memos
	iterate()              // every memo applies: first sighting
	perLaunch := iterate() // second sighting: the chain is composed
	if eng.Stats().ReplayBatchHits != 0 || ReplayComposes(eng) != 1 {
		t.Fatalf("after four iterations: %d batch hits, %d composes; want 0, 1", eng.Stats().ReplayBatchHits, ReplayComposes(eng))
	}

	*probe = workProbe{Runner: probe.Runner}
	const warm = 3
	var perBatch uint64
	for i := 0; i < warm; i++ {
		perBatch = iterate()
	}
	if got := eng.Stats().ReplayBatchHits; got != warm {
		t.Fatalf("%d of %d warm batches took the batch rung", got, warm)
	}
	if probe.drainAllocs != 0 {
		t.Errorf("Drain allocated %d objects over %d warm batches of %d launches, want none",
			probe.drainAllocs, warm, probe.submits/warm)
	}
	if perBatch == 0 || perLaunch < 3*perBatch {
		t.Errorf("a warm batch validated %d bytes, the per-launch path %d for the same launches: want at least 3x fewer", perBatch, perLaunch)
	}
	// What Submit may allocate for one launch: the signature's copy of the
	// parameter bytes, and a slab chunk every ticketChunk tickets; it
	// builds no gridRun, and the queue's backing array is reused. Anything
	// more per launch shows up here. (That Submit hashes nothing is
	// structural — the signature is the launch description — and its price
	// is bench/'s timing.submit_us_per_launch; an allocation count could
	// not have seen the old per-launch SHA-256, whose hasher Go kept on the
	// stack.)
	if limit := probe.submits + probe.submits/ticketChunk + 1; probe.submitAllocs > limit {
		t.Errorf("Submit allocated %d objects over %d launches, more than %d",
			probe.submitAllocs, probe.submits, limit)
	}
	t.Logf("warm batch: %d launches, %d bytes validated (per launch: %d), %.2f allocations per Submit",
		probe.submits/warm, perBatch, perLaunch, float64(probe.submitAllocs)/float64(probe.submits))
}

// wideRegsPTX is a counted loop over accumulators f1..f20: 24 register
// slots, a register file per warp the size of a small library kernel's.
func wideRegsPTX() string {
	var b strings.Builder
	b.WriteString(".version 6.0\n.target sm_61\n.address_size 64\n")
	b.WriteString(".visible .entry wide(.param .u32 pIters)\n{\n\t.reg .pred %p<2>;\n\t.reg .b32 %r<4>;\n\t.reg .f32 %f<21>;\n")
	b.WriteString("\tld.param.u32 %r1, [pIters];\n\tmov.u32 %r2, %tid.x;\n\tcvt.rn.f32.u32 %f1, %r2;\n\tmov.u32 %r3, 0;\n")
	for i := 2; i <= 20; i++ {
		fmt.Fprintf(&b, "\tadd.f32 %%f%d, %%f%d, 0f3F800000;\n", i, i-1)
	}
	b.WriteString("LOOP:\n\tsetp.ge.u32 %p1, %r3, %r1;\n\t@%p1 bra DONE;\n")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "\tadd.f32 %%f%d, %%f%d, %%f%d;\n", i, i, 21-i)
	}
	b.WriteString("\tadd.u32 %r3, %r3, 1;\n\tbra LOOP;\nDONE:\n\tret;\n}\n")
	return b.String()
}

// freeWarps returns how many warps the engine's CTA free list holds.
func freeWarps(e *Engine) int { return reflect.ValueOf(&e.free).Elem().FieldByName("warps").Len() }

// TestColdLaunchAllocs bounds what a detailed launch allocates once the
// engine has run one: a grid's first wave of CTAs is built from the
// storage earlier kernels' CTAs left on the engine's free list, so 20
// launches of a three-wave grid allocate, after the first, at most an
// eighth of one resident wave's register files per launch (a first wave
// built from the heap allocates all of them). The free list itself never
// holds more than a full machine's warps.
func TestColdLaunchAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // no other goroutine allocates while the test counts
	cfg := GTX1050()
	cfg.SampleInterval = 0 // the time series grow by design
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(wideRegsPTX())
	if err != nil {
		t.Fatal(err)
	}
	k := mod.Kernels["wide"]
	g, err := ctx.M.NewGrid(k, exec.Dim3{X: 1}, exec.Dim3{X: 128}, cudart.NewParams().U32(4).Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	perSM, err := occupancy(&cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	resident := cfg.NumSMs * perSM * g.NumWarpsPerCTA()
	g.GridDim.X = 3 * cfg.NumSMs * perSM
	waveRegBytes := uint64(k.NumSlots * exec.WarpSize * 8 * resident)

	const launches = 20
	maxFree := cfg.NumSMs * cfg.MaxWarpsPerSM
	var ms runtime.MemStats
	var first uint64
	for i := 0; i < launches; i++ {
		if i == 1 {
			runtime.ReadMemStats(&ms)
			first = ms.TotalAlloc
		}
		if _, err := eng.RunGrid(g); err != nil {
			t.Fatal(err)
		}
		if n := freeWarps(eng); n > maxFree {
			t.Fatalf("launch %d: the free list holds %d warps, more than the machine's %d", i, n, maxFree)
		}
	}
	runtime.ReadMemStats(&ms)
	perLaunch := (ms.TotalAlloc - first) / (launches - 1)
	if perLaunch > waveRegBytes/8 {
		t.Errorf("%d bytes allocated per launch after the first, more than an eighth of a resident wave's %d register bytes (%d slots, %d warps)",
			perLaunch, waveRegBytes, k.NumSlots, resident)
	}
	t.Logf("%d bytes per launch after the first; a resident wave's register files: %d bytes (%d slots, %d warps)", perLaunch, waveRegBytes, k.NumSlots, resident)
}
