package timing_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/timing"
)

// runSnapshot captures everything the differential tests compare: the
// engine's cycle clock, the per-kernel stats log, the engine-wide counters
// and the functional outputs.
type runSnapshot struct {
	Cycles  uint64
	Log     []cudart.KernelStats
	Stats   timing.Stats
	Outputs []float32
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

// runWorkload executes one workload under a fresh context + engine with
// the given worker count and snapshots the results.
func runWorkload(t *testing.T, workers int, load func(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int)) runSnapshot {
	t.Helper()
	return runPadded(t, workers, 0, load)
}

// runPadded is runWorkload with a pad of pad bytes allocated, and never
// freed, before the workload allocates: the first-fit allocator then
// hands the workload every address it would have had, plus pad.
func runPadded(t testing.TB, workers int, pad uint64, load func(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int)) runSnapshot {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	if pad > 0 {
		if _, err := ctx.Malloc(pad); err != nil {
			t.Fatal(err)
		}
	}
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	out, n := load(t, ctx, h)
	return runSnapshot{
		Cycles:  eng.Cycle(),
		Log:     ctx.KernelStatsLog(),
		Stats:   *eng.Stats(),
		Outputs: ctx.MemcpyF32DtoH(out, n),

		DRAMServed: dramServed(eng),
	}
}

// assertIdentical compares a -j1 run against a -jN run field by field. The
// engine's determinism contract is byte-identical stats for any worker
// count, so any divergence is a bug, not noise.
func assertIdentical(t *testing.T, serial, parallel runSnapshot, workers int) {
	t.Helper()
	if serial.Cycles != parallel.Cycles {
		t.Errorf("cycle count diverged: -j1 %d vs -j%d %d", serial.Cycles, workers, parallel.Cycles)
	}
	if !reflect.DeepEqual(serial.Log, parallel.Log) {
		t.Errorf("per-kernel stats diverged:\n-j1: %+v\n-j%d: %+v", serial.Log, workers, parallel.Log)
	}
	if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Errorf("engine stats diverged between -j1 and -j%d:\n-j1: %+v\n-j%d: %+v",
			workers, serial.Stats, workers, parallel.Stats)
	}
	if !reflect.DeepEqual(serial.Outputs, parallel.Outputs) {
		t.Errorf("functional outputs diverged between -j1 and -j%d", workers)
	}
}

func gemmLoad(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
	t.Helper()
	m, n, k := 64, 48, 56
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%11)*0.25 - 1
	}
	for i := range b {
		b[i] = float32(i%7)*0.5 - 1.5
	}
	pa, _ := ctx.Malloc(uint64(4 * len(a)))
	ctx.MemcpyF32HtoD(pa, a)
	pb, _ := ctx.Malloc(uint64(4 * len(b)))
	ctx.MemcpyF32HtoD(pb, b)
	pc, _ := ctx.Malloc(uint64(4 * m * n))
	if err := h.Gemm(pa, pb, pc, m, n, k, 1, 0); err != nil {
		t.Fatal(err)
	}
	return pc, m * n
}

func im2colConvLoad(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
	t.Helper()
	xd := cudnn.TensorDesc{N: 1, C: 3, H: 14, W: 14}
	fd := cudnn.FilterDesc{K: 4, C: 3, R: 3, S: 3}
	cd := cudnn.ConvDesc{Pad: 1, Stride: 1}
	yd := cudnn.TensorDesc{N: 1, C: fd.K, H: cd.OutDim(xd.H, fd.R), W: cd.OutDim(xd.W, fd.S)}
	x := make([]float32, xd.Count())
	for i := range x {
		x[i] = float32(i%13)*0.125 - 0.5
	}
	w := make([]float32, fd.Count())
	for i := range w {
		w[i] = float32(i%9)*0.25 - 1
	}
	px, _ := ctx.Malloc(uint64(4 * xd.Count()))
	ctx.MemcpyF32HtoD(px, x)
	pw, _ := ctx.Malloc(uint64(4 * fd.Count()))
	ctx.MemcpyF32HtoD(pw, w)
	py, _ := ctx.Malloc(uint64(4 * yd.Count()))
	// FwdAlgoGemm is the im2col + GEMM path.
	if _, err := h.ConvolutionForward(cudnn.FwdAlgoGemm, px, xd, pw, fd, cd, py); err != nil {
		t.Fatal(err)
	}
	return py, yd.Count()
}

func softmaxLoad(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
	t.Helper()
	rows, cols := 32, 40
	x := make([]float32, rows*cols)
	for i := range x {
		x[i] = float32(i%17)*0.3 - 2
	}
	px, _ := ctx.Malloc(uint64(4 * len(x)))
	ctx.MemcpyF32HtoD(px, x)
	py, _ := ctx.Malloc(uint64(4 * len(x)))
	if err := h.SoftmaxForward(px, py, rows, cols); err != nil {
		t.Fatal(err)
	}
	return py, rows * cols
}

// atomicLoad exercises cross-CTA global atomics (backward-filter Algorithm
// 1 accumulates dw with atom.global.add.f32). The engine defers atomics to
// a sequential drain, so even this must be deterministic across worker
// counts.
func atomicLoad(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
	t.Helper()
	xd := cudnn.TensorDesc{N: 1, C: 2, H: 12, W: 12}
	fd := cudnn.FilterDesc{K: 3, C: 2, R: 3, S: 3}
	cd := cudnn.ConvDesc{Pad: 1, Stride: 1}
	yd := cudnn.TensorDesc{N: 1, C: fd.K, H: cd.OutDim(xd.H, fd.R), W: cd.OutDim(xd.W, fd.S)}
	x := make([]float32, xd.Count())
	dy := make([]float32, yd.Count())
	for i := range x {
		x[i] = float32(i%5)*0.5 - 1
	}
	for i := range dy {
		dy[i] = float32(i%3)*0.25 - 0.25
	}
	px, _ := ctx.Malloc(uint64(4 * xd.Count()))
	ctx.MemcpyF32HtoD(px, x)
	pdy, _ := ctx.Malloc(uint64(4 * yd.Count()))
	ctx.MemcpyF32HtoD(pdy, dy)
	pdw, _ := ctx.Malloc(uint64(4 * fd.Count()))
	if err := h.ConvolutionBackwardFilter(cudnn.BwdFilterAlgo1, px, xd, pdy, yd, cd, pdw, fd); err != nil {
		t.Fatal(err)
	}
	return pdw, fd.Count()
}

// TestParallelDifferential is the determinism contract test: for each
// bench workload, a -j1 run and a -j4 run must produce byte-identical
// cycle counts, per-kernel stats, engine counters and outputs.
func TestParallelDifferential(t *testing.T) {
	cases := []struct {
		name string
		load func(testing.TB, *cudart.Context, *cudnn.Handle) (uint64, int)
	}{
		{"gemm", gemmLoad},
		{"im2col_gemm_conv", im2colConvLoad},
		{"softmax", softmaxLoad},
		{"atomic_bwd_filter", atomicLoad},
	}
	const workers = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runWorkload(t, 1, tc.load)
			parallel := runWorkload(t, workers, tc.load)
			assertIdentical(t, serial, parallel, workers)
			if serial.Cycles == 0 || len(serial.Log) == 0 {
				t.Fatal("workload did not exercise the timing engine")
			}
		})
	}
}

// TestParallelWorkerSweep checks a multi-kernel sequence stays identical
// across several worker counts, including oversubscription.
func TestParallelWorkerSweep(t *testing.T) {
	multi := func(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
		gemmLoad(t, ctx, h)
		softmaxLoad(t, ctx, h)
		return im2colConvLoad(t, ctx, h)
	}
	serial := runWorkload(t, 1, multi)
	for _, workers := range []int{2, 3, 8, runtime.NumCPU() + 3} {
		parallel := runWorkload(t, workers, multi)
		assertIdentical(t, serial, parallel, workers)
	}
}

// oobPTX faults during execution (shared store with no shared memory), so
// a perf-mode launch fails mid-kernel.
const oobPTX = `
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

// TestEngineSurvivesFailedLaunch checks a failed kernel does not poison
// the engine: the error is reported once, the dead kernel's CTAs are
// dropped, and a subsequent launch simulates identically to a fresh run.
func TestEngineSurvivesFailedLaunch(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	if _, err := ctx.RegisterModule(oobPTX); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Launch("oob", exec.Dim3{X: 2}, exec.Dim3{X: 64}, cudart.NewParams(), 0); err == nil {
		t.Fatal("expected the faulting kernel to error")
	}
	afterFail := eng.Cycle()
	out, n := gemmLoad(t, ctx, h)
	_ = ctx.MemcpyF32DtoH(out, n)
	log := ctx.KernelStatsLog()
	got := log[len(log)-1]

	fresh := runWorkload(t, 1, gemmLoad)
	want := fresh.Log[len(fresh.Log)-1]
	if got.Cycles != want.Cycles || got.WarpInstrs != want.WarpInstrs {
		t.Fatalf("post-failure launch diverged: got %d cycles / %d instrs, want %d / %d",
			got.Cycles, got.WarpInstrs, want.Cycles, want.WarpInstrs)
	}
	if eng.Cycle() <= afterFail {
		t.Fatal("engine clock did not advance after the failed launch")
	}
}
