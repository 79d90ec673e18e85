package timing_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/ref"
	"repro/internal/timing"
)

func perfContext(t *testing.T, cfg timing.Config) (*cudart.Context, *cudnn.Handle, *timing.Engine) {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	return ctx, h, eng
}

func TestTimingFunctionalEquivalence(t *testing.T) {
	// The performance model must produce bit-identical results to the
	// functional mode (it drives the same functional machine).
	rng := rand.New(rand.NewSource(50))
	xs := ref.TensorShape4{N: 1, C: 2, H: 10, W: 10}
	k, r := 3, 3
	p := ref.ConvParams{Stride: 1, Pad: 1}
	x := make([]float32, xs.Count())
	for i := range x {
		x[i] = rng.Float32()
	}
	w := make([]float32, k*xs.C*r*r)
	for i := range w {
		w[i] = rng.Float32() - 0.5
	}
	want, ys := ref.Conv2DForward(x, xs, w, k, r, p)

	ctx, h, eng := perfContext(t, timing.GTX1050())
	px, _ := ctx.Malloc(uint64(4 * len(x)))
	ctx.MemcpyF32HtoD(px, x)
	pw, _ := ctx.Malloc(uint64(4 * len(w)))
	ctx.MemcpyF32HtoD(pw, w)
	py, _ := ctx.Malloc(uint64(4 * ys.Count()))
	_, err := h.ConvolutionForward(cudnn.FwdAlgoImplicitGemm, px,
		cudnn.TensorDesc{N: xs.N, C: xs.C, H: xs.H, W: xs.W}, pw,
		cudnn.FilterDesc{K: k, C: xs.C, R: r, S: r},
		cudnn.ConvDesc{Pad: p.Pad, Stride: p.Stride}, py)
	if err != nil {
		t.Fatalf("perf-mode conv: %v", err)
	}
	got := ctx.MemcpyF32DtoH(py, ys.Count())
	for i := range got {
		d := got[i] - want[i]
		if d < -1e-4 || d > 1e-4 {
			t.Fatalf("perf-mode result differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if eng.Cycle() == 0 {
		t.Fatal("no cycles elapsed in performance mode")
	}
	log := ctx.KernelStatsLog()
	if len(log) == 0 || log[0].Cycles == 0 {
		t.Fatalf("kernel stats missing cycles: %+v", log)
	}
	if log[0].WarpInstrs == 0 {
		t.Fatal("kernel stats missing instruction count")
	}
}

func TestTimingDeterminism(t *testing.T) {
	run := func() uint64 {
		ctx, h, eng := perfContext(t, timing.GTX1050())
		x := make([]float32, 4*16*16)
		for i := range x {
			x[i] = float32(i%13) * 0.25
		}
		px, _ := ctx.Malloc(uint64(4 * len(x)))
		ctx.MemcpyF32HtoD(px, x)
		py, _ := ctx.Malloc(uint64(4 * len(x)))
		if err := h.ActivationForward(px, py, len(x)); err != nil {
			t.Fatal(err)
		}
		return eng.Cycle()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("timing is not deterministic: %d vs %d cycles", a, b)
	}
}

func TestTimingSaneIPC(t *testing.T) {
	// A large embarrassingly-parallel kernel should reach an IPC well
	// above 1 on a 5-SM GPU and far below the theoretical peak.
	ctx, h, eng := perfContext(t, timing.GTX1050())
	n := 1 << 15
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i)
	}
	px, _ := ctx.Malloc(uint64(4 * n))
	ctx.MemcpyF32HtoD(px, x)
	py, _ := ctx.Malloc(uint64(4 * n))
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	ipc := st.TotalIPC(eng.Cycle())
	peak := float64(eng.Config().NumSMs * eng.Config().SchedulersPerSM)
	if ipc <= 0.3 || ipc > peak {
		t.Fatalf("IPC %v implausible (peak %v)", ipc, peak)
	}
	if st.L1Accesses == 0 || st.DRAMAccesses == 0 {
		t.Fatalf("memory system unused: L1=%d DRAM=%d", st.L1Accesses, st.DRAMAccesses)
	}
}

func TestTimingCacheLocality(t *testing.T) {
	// Re-running the same kernel over the same data must hit in cache and
	// finish faster the second time (L2 is persistent across launches).
	ctx, h, _ := perfContext(t, timing.GTX1050())
	n := 1 << 12
	px, _ := ctx.Malloc(uint64(4 * n))
	py, _ := ctx.Malloc(uint64(4 * n))
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	log := ctx.KernelStatsLog()
	if len(log) != 2 {
		t.Fatalf("expected 2 launches, got %d", len(log))
	}
	if log[1].Cycles >= log[0].Cycles {
		t.Fatalf("warm run (%d cycles) not faster than cold run (%d cycles)",
			log[1].Cycles, log[0].Cycles)
	}
}

func TestTimingBarrierKernel(t *testing.T) {
	// SGEMM uses bar.sync heavily; it must complete and record barrier
	// stalls in the warp-issue breakdown.
	ctx, h, eng := perfContext(t, timing.GTX1050())
	m, n, k := 64, 64, 64
	a := make([]float32, m*k)
	bm := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%7) * 0.5
	}
	for i := range bm {
		bm[i] = float32(i%5) * 0.25
	}
	pa, _ := ctx.Malloc(uint64(4 * len(a)))
	ctx.MemcpyF32HtoD(pa, a)
	pb, _ := ctx.Malloc(uint64(4 * len(bm)))
	ctx.MemcpyF32HtoD(pb, bm)
	pc, _ := ctx.Malloc(uint64(4 * m * n))
	if err := h.Gemm(pa, pb, pc, m, n, k, 1, 0); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m*n)
	ref.Gemm(a, bm, want, m, n, k, 1, 0)
	got := ctx.MemcpyF32DtoH(pc, m*n)
	for i := range got {
		d := got[i] - want[i]
		if d < -1e-2 || d > 1e-2 {
			t.Fatalf("gemm perf-mode mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if eng.Stats().SharedAccesses == 0 {
		t.Fatal("no shared-memory accesses recorded for tiled GEMM")
	}
}

func TestWarpBreakdownSeries(t *testing.T) {
	ctx, h, eng := perfContext(t, timing.GTX1050())
	n := 1 << 13
	px, _ := ctx.Malloc(uint64(4 * n))
	py, _ := ctx.Malloc(uint64(4 * n))
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	names, series := eng.Stats().WarpIssueBreakdown()
	if len(names) != 4+32 {
		t.Fatalf("expected 36 warp categories, got %d", len(names))
	}
	var any float64
	for _, row := range series {
		for _, v := range row {
			any += v
			if v < 0 || v > 1.0001 {
				t.Fatalf("breakdown fraction %v out of range", v)
			}
		}
	}
	if any == 0 {
		t.Fatal("empty warp breakdown")
	}
	// full-warp issues (W32) must appear for a 256-thread elementwise kernel
	w32 := series[len(series)-1]
	var sum float64
	for _, v := range w32 {
		sum += v
	}
	if sum == 0 {
		t.Fatal("no full-warp issues recorded")
	}
}

// edgeHarness bundles a context + directly-driven engine (no runner)
// with the stream test kernels registered, for queue-order edge cases.
type edgeHarness struct {
	t   *testing.T
	ctx *cudart.Context
	eng *timing.Engine
}

func newEdgeHarness(t *testing.T) *edgeHarness {
	t.Helper()
	return newEdgeHarnessOn(t, timing.GTX1050(), 1)
}

func newEdgeHarnessOn(t *testing.T, cfg timing.Config, workers int) *edgeHarness {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(cfg, timing.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for _, src := range []string{streamPTX, oobPTX} {
		if _, err := ctx.RegisterModule(src); err != nil {
			t.Fatal(err)
		}
	}
	return &edgeHarness{t: t, ctx: ctx, eng: eng}
}

// alloc uploads a float32 buffer and returns its device pointer.
func (h *edgeHarness) alloc(data []float32) uint64 {
	h.t.Helper()
	p, _ := h.ctx.Malloc(uint64(4 * len(data)))
	h.ctx.MemcpyF32HtoD(p, data)
	return p
}

// submitSqadd queues y[i] += x[i]*x[i] over n elements on a stream.
func (h *edgeHarness) submitSqadd(stream int, px, py uint64, n int) *timing.Ticket {
	h.t.Helper()
	_, k, err := h.ctx.LookupKernel("sqadd")
	if err != nil {
		h.t.Fatal(err)
	}
	p := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(n))
	g, err := h.ctx.M.NewGrid(k, exec.Dim3{X: (n + 63) / 64}, exec.Dim3{X: 64}, p.Bytes(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	tk, err := h.eng.Submit(g, stream)
	if err != nil {
		h.t.Fatal(err)
	}
	return tk
}

// submitOOB queues the mid-execution-faulting kernel on a stream.
func (h *edgeHarness) submitOOB(stream int) *timing.Ticket {
	h.t.Helper()
	_, k, err := h.ctx.LookupKernel("oob")
	if err != nil {
		h.t.Fatal(err)
	}
	g, err := h.ctx.M.NewGrid(k, exec.Dim3{X: 2}, exec.Dim3{X: 64}, cudart.NewParams().Bytes(), 0)
	if err != nil {
		h.t.Fatal(err)
	}
	tk, err := h.eng.Submit(g, stream)
	if err != nil {
		h.t.Fatal(err)
	}
	return tk
}

// TestDrainQueueEdgeCases pins the submission-queue order semantics the
// active-set scheduler must preserve in the corners: a ticket aborted
// mid-drain takes the whole batch with it but leaves the engine
// reusable, a copy submitted after its consumer kernel on the same
// stream applies after it, a zero-size copy retires without wedging the
// drain, async copies on different streams serialise on the copy engine
// with a synchronous copy behind them landing last, and Drain is
// idempotent.
func TestDrainQueueEdgeCases(t *testing.T) {
	const n = 256
	mkData := func(scale float32) []float32 {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(i%7) * scale
		}
		return d
	}

	cases := []struct {
		name string
		run  func(t *testing.T, h *edgeHarness)
	}{
		{"ticket_aborted_mid_drain", func(t *testing.T, h *edgeHarness) {
			good := h.submitSqadd(1, h.alloc(mkData(0.5)), h.alloc(mkData(0.25)), n)
			bad := h.submitOOB(2)
			trailing := h.eng.SubmitCopy(2, 64, func() { t.Error("copy behind the faulting kernel must not apply") })
			if err := h.eng.Drain(); err == nil {
				t.Fatal("expected the faulting batch to error")
			}
			for i, tk := range []*timing.Ticket{good, bad, trailing} {
				if !tk.Done() {
					t.Errorf("ticket %d not retired after the aborted drain", i)
				}
			}
			if _, err := bad.Stats(); err == nil {
				t.Error("faulting ticket reported no error")
			}
			if _, err := trailing.Stats(); err == nil {
				t.Error("ticket queued behind the fault reported no error")
			}
			// The engine must stay usable: a fresh batch drains clean.
			after := h.submitSqadd(1, h.alloc(mkData(0.5)), h.alloc(mkData(0.25)), n)
			if err := h.eng.Drain(); err != nil {
				t.Fatalf("engine unusable after aborted batch: %v", err)
			}
			if st, err := after.Stats(); err != nil || st.WarpInstrs == 0 {
				t.Errorf("post-abort launch has no stats: %+v, %v", st, err)
			}
		}},
		{"stall_ledger_after_aborted_batch", func(t *testing.T, _ *edgeHarness) {
			// What the stall series hold once a batch aborts mid-drain: the
			// faulting kernel queued behind a finished one, another kernel
			// still running beside it. The abort must charge every slot the
			// per-cycle walk had charged when the failing scheduler stopped
			// and none after, at any worker count. Narrow sample buckets, so
			// the series digest sees where each slot landed.
			cfg := timing.GTX1050()
			cfg.SampleInterval = 50
			type ledger struct {
				Cycle          uint64
				Stalls         [4]uint64
				IdleSlotCycles uint64
				Series         string
			}
			want := ledger{269, [4]uint64{812, 160, 0, 3980}, 4852, "7a550db157e5c4f9"}
			for _, workers := range []int{1, 2} {
				h := newEdgeHarnessOn(t, cfg, workers)
				px, py := h.alloc(mkData(0.5)), h.alloc(mkData(0.25))
				var beside *timing.Ticket
				for range 4 {
					beside = h.submitSqadd(1, px, py, n)
				}
				h.submitSqadd(2, h.alloc(mkData(1)), h.alloc(mkData(2)), n)
				h.submitOOB(2)
				if err := h.eng.Drain(); err == nil {
					t.Fatal("expected the faulting batch to error")
				}
				if _, err := beside.Stats(); err == nil {
					t.Fatal("the kernel beside the fault retired before it: nothing was running at the abort")
				}
				st := h.eng.Stats()
				got := ledger{h.eng.Cycle(), timing.StallTotals(st), st.IdleSlotCycles, timing.SeriesDigest(st)}
				if got != want {
					t.Errorf("-j%d: after the aborted batch %+v, want %+v", workers, got, want)
				}
			}
		}},
		{"memory_stage_failure_aborts_batch", func(t *testing.T, _ *edgeHarness) {
			// A segment the memory stage cannot time — an L2 merge with no
			// parent miss in the batch — fails the batch the way a faulting
			// kernel does, at any worker count, and the engine stays usable.
			for _, workers := range []int{1, 2} {
				h := newEdgeHarnessOn(t, timing.GTX1050(), workers)
				px := h.alloc(mkData(0.5))
				fill := timing.OrphanL2Miss(h.eng, px)
				victim := h.submitSqadd(1, px, h.alloc(mkData(0.25)), n)
				beside := h.submitSqadd(2, h.alloc(mkData(1)), h.alloc(mkData(2)), n)
				err := h.eng.Drain()
				const msg = "L2 merged segment without an in-batch parent miss"
				if err == nil || !strings.Contains(err.Error(), "kernel sqadd") || !strings.Contains(err.Error(), msg) {
					t.Fatalf("-j%d: Drain returned %v, want the kernel's %q", workers, err, msg)
				}
				if _, verr := victim.Stats(); verr != err {
					t.Errorf("-j%d: the kernel charged with the failure reports %v, want %v", workers, verr, err)
				}
				if _, berr := beside.Stats(); !beside.Done() || berr == nil {
					t.Errorf("-j%d: the kernel beside it: done %v, error %v", workers, beside.Done(), berr)
				}
				fill()
				after := h.submitSqadd(1, px, h.alloc(mkData(0.25)), n)
				if err := h.eng.Drain(); err != nil {
					t.Fatalf("-j%d: engine unusable after the memory stage failed: %v", workers, err)
				}
				if st, err := after.Stats(); err != nil || st.WarpInstrs == 0 {
					t.Errorf("-j%d: launch after the failure: %+v, %v", workers, st, err)
				}
			}
		}},
		{"ticket_outlives_later_drains", func(t *testing.T, h *edgeHarness) {
			// Tickets are never recycled: one held across three later drains,
			// which take more tickets than one slab chunk holds, still reports
			// its own statistics and error.
			good := h.submitSqadd(1, h.alloc(mkData(0.5)), h.alloc(mkData(0.25)), n)
			if err := h.eng.Drain(); err != nil {
				t.Fatal(err)
			}
			bad := h.submitOOB(2)
			if err := h.eng.Drain(); err == nil {
				t.Fatal("expected the faulting batch to error")
			}
			goodSt, goodErr := good.Stats()
			badSt, badErr := bad.Stats()
			if goodErr != nil || goodSt.WarpInstrs == 0 || badErr == nil {
				t.Fatalf("before the later drains: good %+v, %v; bad error %v", goodSt, goodErr, badErr)
			}
			for range 3 {
				h.submitSqadd(1, h.alloc(mkData(1)), h.alloc(mkData(2)), n)
				for range 60 {
					h.eng.SubmitCopy(2, 64, nil)
				}
				if err := h.eng.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			if st, err := good.Stats(); st != goodSt || err != goodErr {
				t.Errorf("held ticket now reports %+v, %v; want %+v, %v", st, err, goodSt, goodErr)
			}
			if st, err := bad.Stats(); st != badSt || err != badErr {
				t.Errorf("held failed ticket now reports %+v, %v; want %+v, %v", st, err, badSt, badErr)
			}
		}},
		{"copy_after_consumer_kernel_same_stream", func(t *testing.T, h *edgeHarness) {
			x, y := mkData(1), make([]float32, n)
			px, py := h.alloc(x), h.alloc(y)
			over := mkData(-2)
			// The kernel consumes x; the overwrite of x is submitted
			// after it on the same stream, so the kernel must read the
			// original data and the final memory must show the copy.
			k := h.submitSqadd(3, px, py, n)
			c := h.eng.SubmitCopy(3, 4*n, func() { h.ctx.MemcpyF32HtoD(px, over) })
			if err := h.eng.Drain(); err != nil {
				t.Fatal(err)
			}
			if !k.Done() || !c.Done() {
				t.Fatal("tickets not retired")
			}
			if kst, _ := k.Stats(); kst.Cycles == 0 {
				t.Error("kernel skipped the detailed model")
			}
			if cst, _ := c.Stats(); cst.Cycles == 0 {
				t.Error("copy occupied the engine for zero cycles")
			}
			gotY := h.ctx.MemcpyF32DtoH(py, n)
			for i := range gotY {
				want := x[i] * x[i] // kernel saw pre-copy x
				if d := gotY[i] - want; d < -1e-5 || d > 1e-5 {
					t.Fatalf("kernel observed the later copy: y[%d]=%v, want %v", i, gotY[i], want)
				}
			}
			gotX := h.ctx.MemcpyF32DtoH(px, n)
			for i := range gotX {
				if gotX[i] != over[i] {
					t.Fatalf("copy did not land after the kernel: x[%d]=%v, want %v", i, gotX[i], over[i])
				}
			}
		}},
		{"zero_size_copy", func(t *testing.T, h *edgeHarness) {
			applied := false
			c := h.eng.SubmitCopy(1, 0, func() { applied = true })
			k := h.submitSqadd(1, h.alloc(mkData(1)), h.alloc(make([]float32, n)), n)
			if err := h.eng.Drain(); err != nil {
				t.Fatal(err)
			}
			if !applied {
				t.Error("zero-size copy's apply never ran")
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles != 0 {
				t.Errorf("zero-size copy occupied %d cycles, want 0", st.Cycles)
			}
			if kst, _ := k.Stats(); kst.WarpInstrs == 0 {
				t.Error("kernel behind the zero-size copy never ran")
			}
		}},
		{"async_copies_serialise_and_sync_copy_lands_after", func(t *testing.T, h *edgeHarness) {
			// Through the runtime: async uploads on two streams share the
			// one modelled copy engine, and a synchronous MemcpyHtoD behind
			// them is device-synchronizing, so it drains both and lands on
			// top. Time is the engine's; the runtime keeps no clock.
			h.ctx.SetRunner(timing.Runner{E: h.eng})
			s1, s2 := h.ctx.StreamCreate(), h.ctx.StreamCreate()
			const size = 1 << 16
			pa, _ := h.ctx.Malloc(size)
			pb, _ := h.ctx.Malloc(size)
			upload := func(dst uint64, fill byte, s cudart.Stream) {
				if err := h.ctx.MemcpyHtoDAsync(dst, bytes.Repeat([]byte{fill}, size), s); err != nil {
					t.Fatal(err)
				}
			}
			start := h.eng.Cycle()
			upload(pa, 1, s1)
			if err := h.ctx.DeviceSynchronize(); err != nil {
				t.Fatal(err)
			}
			one := h.eng.Cycle() - start
			if one == 0 {
				t.Fatal("an async copy on a created stream took no engine cycles")
			}

			start = h.eng.Cycle()
			upload(pa, 2, s1)
			upload(pb, 3, s2)
			h.ctx.MemcpyHtoD(pa, []byte{9, 9, 9, 9})
			if two := h.eng.Cycle() - start; two < 2*one {
				t.Errorf("two %d-byte copies on different streams took %d cycles, one takes %d: they overlapped on the copy engine", size, two, one)
			}
			got := make([]byte, 8)
			h.ctx.MemcpyDtoH(got, pa)
			if want := []byte{9, 9, 9, 9, 2, 2, 2, 2}; !bytes.Equal(got, want) {
				t.Errorf("after the sync copy the buffer starts % x, want % x (async upload first, sync copy on top)", got, want)
			}
			h.ctx.MemcpyDtoH(got, pb+size-8)
			if want := bytes.Repeat([]byte{3}, 8); !bytes.Equal(got, want) {
				t.Errorf("the second stream's upload ends % x, want % x", got, want)
			}
		}},
		{"drain_called_twice", func(t *testing.T, h *edgeHarness) {
			h.submitSqadd(1, h.alloc(mkData(1)), h.alloc(make([]float32, n)), n)
			if err := h.eng.Drain(); err != nil {
				t.Fatal(err)
			}
			before := h.eng.Cycle()
			if err := h.eng.Drain(); err != nil {
				t.Fatalf("second Drain on an empty queue errored: %v", err)
			}
			if h.eng.Cycle() != before {
				t.Errorf("empty Drain advanced the clock: %d -> %d", before, h.eng.Cycle())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newEdgeHarness(t)) })
	}
}

func TestDRAMSeriesPopulated(t *testing.T) {
	ctx, h, eng := perfContext(t, timing.GTX1050())
	n := 1 << 14
	px, _ := ctx.Malloc(uint64(4 * n))
	py, _ := ctx.Malloc(uint64(4 * n))
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	chans := eng.Partitions()
	var reads uint64
	for _, ch := range chans {
		r, _, _, _ := ch.Totals()
		reads += r
		eff := ch.EfficiencySeries()
		if len(eff) != ch.NumBanks() {
			t.Fatalf("efficiency series has %d banks, want %d", len(eff), ch.NumBanks())
		}
	}
	if reads == 0 {
		t.Fatal("no DRAM reads recorded")
	}
}

// TestAdvanceTo: AdvanceTo is the multi-GPU layer's clock bridge. An
// idle engine jumps to a collective's completion cycle with the span
// charged as idle. An engine with a submitted grid refuses to jump; once
// drained it jumps again, and the drained launch cost what it costs on a
// fresh engine.
func TestAdvanceTo(t *testing.T) {
	h := newEdgeHarness(t)
	e := h.eng
	if err := e.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 1000 {
		t.Fatalf("cycle = %d, want 1000", e.Cycle())
	}
	if ff := e.Stats().FastForwardedCycles; ff != 1000 {
		t.Fatalf("FastForwardedCycles = %d, want 1000", ff)
	}
	wantIdle := uint64(1000) * uint64(e.Config().NumSMs*e.Config().SchedulersPerSM)
	if got := e.Stats().IdleSlotCycles; got != wantIdle {
		t.Fatalf("IdleSlotCycles = %d, want %d (span x issue slots)", got, wantIdle)
	}
	// Earlier or equal targets are a no-op — the clock never rewinds.
	if err := e.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 1000 {
		t.Fatalf("cycle rewound to %d", e.Cycle())
	}

	const n = 512
	x, y := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i], y[i] = float32(i%5)*0.5, float32(i%3)
	}
	busy := h.submitSqadd(0, h.alloc(x), h.alloc(y), n)
	if err := e.AdvanceTo(2000); err == nil {
		t.Fatal("AdvanceTo succeeded with a grid submitted and not drained")
	}
	if e.Cycle() != 1000 {
		t.Fatalf("a refused AdvanceTo moved the clock to %d", e.Cycle())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	drained := e.Cycle()
	if err := e.AdvanceTo(drained + 500); err != nil {
		t.Fatalf("AdvanceTo after Drain: %v", err)
	}
	if e.Cycle() != drained+500 {
		t.Fatalf("cycle = %d after AdvanceTo(%d)", e.Cycle(), drained+500)
	}

	fresh := newEdgeHarness(t)
	ref := fresh.submitSqadd(0, fresh.alloc(x), fresh.alloc(y), n)
	if err := fresh.eng.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := busy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles == 0 || got != want {
		t.Fatalf("launch drained after an idle jump: %+v\nfresh engine: %+v", got, want)
	}
}
