package timing

import (
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// oobSharedPTX faults during execution (shared-memory store with no
// shared memory allocated), driving the abortBatch path.
const oobSharedPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry oob()
{
	.reg .f32 %f<2>;
	.reg .b32 %r<2>;
	mov.f32 %f1, 0f3F800000;
	mov.u32 %r1, 0;
	st.shared.f32 [%r1+4096], %f1;
	ret;
}
`

// assertCoresReleased checks no core's reusable per-cycle buffer still
// pins batch state through its backing array: retiredSlots (which held
// the last cycle's retired ctaSlots and through them the grids), the
// slots tail left by the in-place retirement compaction, and the
// memQ/atomQ warp-context pointers. It also checks every scheduler is
// empty — no candidate and no ready, re-armed or parked warp the next
// batch's picks could trip over.
func assertCoresReleased(t *testing.T, e *Engine) {
	t.Helper()
	for _, c := range e.cores {
		if len(c.slots) != 0 {
			t.Errorf("core %d: %d resident CTAs survive the batch", c.id, len(c.slots))
		}
		if c.warpsUsed != 0 || c.smemUsed != 0 || c.checkSlots {
			t.Errorf("core %d: occupancy %d warps / %d B shared, checkSlots=%v after the batch", c.id, c.warpsUsed, c.smemUsed, c.checkSlots)
		}
		for si := range c.scheds {
			sc := &c.scheds[si]
			if len(sc.cands) != 0 || len(sc.rearmed) != 0 || len(sc.wakeQ) != 0 || sc.rr != 0 || sc.n != [numWarpStates]int{} {
				t.Errorf("core %d sched %d: %d candidates, %d re-armed, %d parked, rr %d, counts %v survive the batch",
					c.id, si, len(sc.cands), len(sc.rearmed), len(sc.wakeQ), sc.rr, sc.n)
			}
			for _, word := range sc.ready {
				if word != 0 {
					t.Errorf("core %d sched %d: ready set %#x survives the batch", c.id, si, word)
				}
			}
			for _, list := range [][]*warpCtx{sc.cands[:cap(sc.cands)], sc.rearmed[:cap(sc.rearmed)], sc.wakeQ[:cap(sc.wakeQ)]} {
				for _, w := range list {
					if w != nil {
						t.Errorf("core %d sched %d: a scheduler list's backing array still pins a warp context", c.id, si)
					}
				}
			}
		}
		for i, s := range c.retiredSlots[:cap(c.retiredSlots)] {
			if s != nil {
				t.Errorf("core %d: retiredSlots backing array still pins ctaSlot at %d", c.id, i)
			}
		}
		for i, s := range c.slots[:cap(c.slots)] {
			if s != nil {
				t.Errorf("core %d: slots backing array still pins ctaSlot at %d", c.id, i)
			}
		}
		for i, r := range c.memQ[:cap(c.memQ)] {
			if r.w != nil || r.dst != nil {
				t.Errorf("core %d: memQ backing array still pins warp context at %d", c.id, i)
			}
		}
		for i, w := range c.atomQ[:cap(c.atomQ)] {
			if w != nil {
				t.Errorf("core %d: atomQ backing array still pins warp context at %d", c.id, i)
			}
		}
	}
	if len(e.queue) != 0 {
		t.Errorf("queue not emptied: %d tickets", len(e.queue))
	}
	for _, tk := range e.queue[:cap(e.queue)] {
		if tk != nil {
			t.Error("queue backing array still pins a ticket")
		}
	}
}

// TestDrainReleasesSlots pins the ROADMAP memory item: after a drain
// (and equally after an aborted batch) no core may keep the last
// cycle's retired ctaSlots — or any other batch reference — alive via
// the backing arrays of its reusable buffers, or every drained batch
// would stay resident until the next one happens to overwrite the same
// indices.
func TestDrainReleasesSlots(t *testing.T) {
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
	submit := func(stream int) *Ticket {
		px, _ := ctx.Malloc(4 * eqBufN)
		py, _ := ctx.Malloc(4 * eqBufN)
		ctx.MemcpyF32HtoD(px, make([]float32, eqBufN))
		p := cudart.NewParams().Ptr(px).Ptr(py).U32(eqBufN)
		g, err := ctx.M.NewGrid(kern, exec.Dim3{X: 4}, exec.Dim3{X: 64}, p.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := eng.Submit(g, stream)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	tk1, tk2 := submit(1), submit(2)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	assertCoresReleased(t, eng)
	for i, tk := range []*Ticket{tk1, tk2} {
		if tk.grid != nil || tk.run != nil || tk.prev != nil || tk.next != nil {
			t.Errorf("ticket %d still pins its grid/run/stream links after drain", i)
		}
		if st, err := tk.Stats(); err != nil || st.WarpInstrs == 0 {
			t.Errorf("ticket %d stats lost by the release: %+v, %v", i, st, err)
		}
	}

	// Abort path: a faulting kernel must leave the cores just as clean.
	if _, err := ctx.RegisterModule(oobSharedPTX); err != nil {
		t.Fatal(err)
	}
	_, bad, err := ctx.LookupKernel("oob")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.M.NewGrid(bad, exec.Dim3{X: 2}, exec.Dim3{X: 64}, cudart.NewParams().Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(g, 1); err != nil {
		t.Fatal(err)
	}
	submit(2) // innocent bystander, aborted alongside
	if err := eng.Drain(); err == nil {
		t.Fatal("expected the faulting batch to error")
	}
	assertCoresReleased(t, eng)

	// The abort came mid-drain, with warps ready, re-armed and parked; the
	// next batch must run as if it never happened.
	tk3 := submit(1)
	if err := eng.Drain(); err != nil {
		t.Fatalf("batch after the aborted one: %v", err)
	}
	assertCoresReleased(t, eng)
	st1, _ := tk1.Stats()
	if st3, err := tk3.Stats(); err != nil || st3.WarpInstrs != st1.WarpInstrs {
		t.Errorf("batch after the aborted one issued %d warp instructions (%v), want %d", st3.WarpInstrs, err, st1.WarpInstrs)
	}
}
