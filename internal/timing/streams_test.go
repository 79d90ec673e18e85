package timing_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// streamPTX is a bandwidth+ALU kernel used to exercise concurrent
// streams: y[i] = x[i]*x[i] + y[i], over disjoint buffers per stream.
const streamPTX = `
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

// spinPTX is a compute-bound kernel (dependent fma chain) that cannot
// fill the GPU on its own — the shape the paper found typical of small
// cuDNN kernels, where inter-kernel concurrency is the only way to keep
// the SMs busy.
const spinPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry spin(
	.param .u64 pY,
	.param .u32 pIters
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<3>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;

	ld.param.u64 %rd1, [pY];
	ld.param.u32 %r1, [pIters];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r5, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	mov.f32 %f2, 0f3F800199;
	mov.u32 %r6, 0;
LOOP:
	fma.rn.f32 %f1, %f1, %f2, %f2;
	add.s32 %r6, %r6, 1;
	setp.lt.u32 %p1, %r6, %r1;
	@%p1 bra LOOP;
	st.global.f32 [%rd3], %f1;
	ret;
}
`

const streamN = 1 << 11

// runSpin launches `lanes` copies of the small compute-bound kernel —
// one per stream when concurrent, back-to-back on the default stream
// otherwise — and returns the engine-cycle total plus the stats log.
func runSpin(t testing.TB, lanes int, concurrent bool) (uint64, []cudart.KernelStats) {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	if _, err := ctx.RegisterModule(spinPTX); err != nil {
		t.Fatal(err)
	}
	const threads = 256
	ys := make([]uint64, lanes)
	for i := range ys {
		ys[i], _ = ctx.Malloc(4 * threads)
		ctx.MemcpyF32HtoD(ys[i], make([]float32, threads))
	}
	start := eng.Cycle()
	for i := range ys {
		s := cudart.DefaultStream
		if concurrent {
			s = ctx.StreamCreate()
		}
		p := cudart.NewParams().Ptr(ys[i]).U32(256)
		if _, err := ctx.LaunchOnStream(s, "spin", exec.Dim3{X: 2}, exec.Dim3{X: threads / 2}, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	return eng.Cycle() - start, ctx.KernelStatsLog()
}

func putF32(buf []byte, i int, v float32) {
	bits := math.Float32bits(v)
	buf[4*i] = byte(bits)
	buf[4*i+1] = byte(bits >> 8)
	buf[4*i+2] = byte(bits >> 16)
	buf[4*i+3] = byte(bits >> 24)
}

// streamSnapshot captures everything the stream differential compares.
type streamSnapshot struct {
	TotalCycles uint64
	Log         []cudart.KernelStats
	Outputs     [][]float32
	Stats       timing.Stats
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

// runStreams executes `lanes` kernels over disjoint buffer pairs — one
// per stream when concurrent, all on the legacy default stream when
// serialized — and snapshots the results. All uploads that would
// synchronise happen before the first launch so concurrent launches
// really coexist in the engine; with asyncCopy each lane's y upload
// instead rides its stream through the detailed copy-engine model.
func runStreams(t testing.TB, workers, lanes int, concurrent, asyncCopy bool) streamSnapshot {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	if _, err := ctx.RegisterModule(streamPTX); err != nil {
		t.Fatal(err)
	}

	type lane struct {
		px, py uint64
		ybuf   []byte // pending async upload (nil when uploaded sync)
	}
	prep := make([]lane, lanes)
	for i := range prep {
		x := make([]float32, streamN)
		y := make([]float32, streamN)
		for j := range x {
			x[j] = float32((j+i)%17)*0.25 - 1
			y[j] = float32(j%5) * 0.5
		}
		prep[i].px, _ = ctx.Malloc(4 * streamN)
		ctx.MemcpyF32HtoD(prep[i].px, x)
		prep[i].py, _ = ctx.Malloc(4 * streamN)
		if asyncCopy && concurrent {
			buf := make([]byte, 4*streamN)
			for j, v := range y {
				putF32(buf, j, v)
			}
			prep[i].ybuf = buf
		} else {
			ctx.MemcpyF32HtoD(prep[i].py, y)
		}
	}

	start := eng.Cycle()
	grid := exec.Dim3{X: (streamN + 127) / 128}
	block := exec.Dim3{X: 128}
	for i := range prep {
		s := cudart.DefaultStream
		if concurrent {
			s = ctx.StreamCreate()
		}
		if prep[i].ybuf != nil {
			if err := ctx.MemcpyHtoDAsync(prep[i].py, prep[i].ybuf, s); err != nil {
				t.Fatal(err)
			}
		}
		p := cudart.NewParams().Ptr(prep[i].px).Ptr(prep[i].py).U32(streamN)
		if _, err := ctx.LaunchOnStream(s, "sqadd", grid, block, p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	snap := streamSnapshot{
		TotalCycles: eng.Cycle() - start,
		Log:         ctx.KernelStatsLog(),
		Stats:       *eng.Stats(),
		DRAMServed:  dramServed(eng),
	}
	for i := range prep {
		snap.Outputs = append(snap.Outputs, ctx.MemcpyF32DtoH(prep[i].py, streamN))
	}
	return snap
}

// TestStreamVsSerialDifferential is the stream determinism contract: a
// multi-stream workload run concurrently must produce exactly the same
// final device memory and per-kernel instruction counts as the same
// workload serialized on the legacy default-stream path. (Cycles differ —
// that is the point of overlap.)
func TestStreamVsSerialDifferential(t *testing.T) {
	const lanes = 3
	conc := runStreams(t, 1, lanes, true, true)
	serial := runStreams(t, 1, lanes, false, false)

	if len(conc.Log) != len(serial.Log) {
		t.Fatalf("launch counts diverged: %d vs %d", len(conc.Log), len(serial.Log))
	}
	for i := range conc.Log {
		if conc.Log[i].WarpInstrs != serial.Log[i].WarpInstrs {
			t.Errorf("kernel %d instruction count diverged: concurrent %d vs serial %d",
				i, conc.Log[i].WarpInstrs, serial.Log[i].WarpInstrs)
		}
		if conc.Log[i].Cycles == 0 {
			t.Errorf("kernel %d has no cycles — did not go through the detailed model", i)
		}
	}
	if !reflect.DeepEqual(conc.Outputs, serial.Outputs) {
		t.Error("final device memory diverged between concurrent and serialized runs")
	}
}

// TestStreamWorkerDeterminism checks the concurrent multi-stream path
// preserves PR 1's contract: byte-identical results for any -j count.
func TestStreamWorkerDeterminism(t *testing.T) {
	const lanes = 3
	base := runStreams(t, 1, lanes, true, true)
	for _, workers := range []int{2, 4, 7} {
		got := runStreams(t, workers, lanes, true, true)
		if base.TotalCycles != got.TotalCycles {
			t.Errorf("-j1 vs -j%d total cycles diverged: %d vs %d",
				workers, base.TotalCycles, got.TotalCycles)
		}
		if !reflect.DeepEqual(base.Log, got.Log) {
			t.Errorf("-j1 vs -j%d per-kernel stats diverged:\n%+v\n%+v",
				workers, base.Log, got.Log)
		}
		if !reflect.DeepEqual(base.Outputs, got.Outputs) {
			t.Errorf("-j1 vs -j%d outputs diverged", workers)
		}
	}
}

// TestStreamOverlapBeatsSerial is the acceptance check: two small
// kernels on different streams must overlap in the detailed model,
// finishing in measurably fewer total cycles than the serialized sum.
func TestStreamOverlapBeatsSerial(t *testing.T) {
	conc, _ := runSpin(t, 2, true)
	_, serialLog := runSpin(t, 2, false)

	var serialSum uint64
	for _, k := range serialLog {
		serialSum += k.Cycles
	}
	if conc == 0 || serialSum == 0 {
		t.Fatal("workload did not exercise the timing engine")
	}
	// "measurably below": at least 10% saved, far outside determinism noise
	if conc >= serialSum*9/10 {
		t.Fatalf("streams did not overlap: concurrent total %d cycles vs serialized sum %d",
			conc, serialSum)
	}
	t.Logf("concurrent %d cycles vs serialized sum %d (%.0f%% saved)",
		conc, serialSum, 100*(1-float64(conc)/float64(serialSum)))
}

// TestSubmitDrainDirect drives Engine.Submit/Drain without the cudart
// layer: two grids on different streams, tickets carry attributable
// per-kernel stats, and a same-stream pair serialises.
func TestSubmitDrainDirect(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	// note: runner not installed — we drive the engine directly
	if _, err := ctx.RegisterModule(streamPTX); err != nil {
		t.Fatal(err)
	}
	mkGrid := func(lane int) *exec.Grid {
		x := make([]float32, streamN)
		px, _ := ctx.Malloc(4 * streamN)
		ctx.MemcpyF32HtoD(px, x)
		py, _ := ctx.Malloc(4 * streamN)
		p := cudart.NewParams().Ptr(px).Ptr(py).U32(streamN)
		_, k, err := ctx.LookupKernel("sqadd")
		if err != nil {
			t.Fatal(err)
		}
		g, err := ctx.M.NewGrid(k, exec.Dim3{X: 32}, exec.Dim3{X: 128}, p.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	t1, err := eng.Submit(mkGrid(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := eng.Submit(mkGrid(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Done() || t2.Done() {
		t.Fatal("tickets done before Drain")
	}
	if _, err := t1.Stats(); err == nil {
		t.Fatal("expected Stats to error before Drain")
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	s1, err := t1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := t2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []cudart.KernelStats{s1, s2} {
		if s.Name != "sqadd" || s.Cycles == 0 || s.WarpInstrs == 0 {
			t.Fatalf("ticket %d stats not attributed: %+v", i, s)
		}
	}
	if s1.WarpInstrs != s2.WarpInstrs {
		t.Fatalf("identical grids reported different instruction counts: %d vs %d",
			s1.WarpInstrs, s2.WarpInstrs)
	}
}

// BenchmarkStreamOverlap reports the cycle savings of concurrent stream
// execution over serialized launches for 2 and 4 streams of small
// compute-bound kernels.
func BenchmarkStreamOverlap(b *testing.B) {
	for _, lanes := range []int{2, 4} {
		b.Run(fmt.Sprintf("streams=%d", lanes), func(b *testing.B) {
			var conc, serialSum uint64
			for i := 0; i < b.N; i++ {
				c, _ := runSpin(b, lanes, true)
				_, sLog := runSpin(b, lanes, false)
				conc = c
				serialSum = 0
				for _, k := range sLog {
					serialSum += k.Cycles
				}
			}
			b.ReportMetric(float64(conc), "cycles_concurrent")
			b.ReportMetric(float64(serialSum), "cycles_serial_sum")
			b.ReportMetric(float64(serialSum)/float64(conc), "overlap_speedup")
		})
	}
}
