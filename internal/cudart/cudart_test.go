package cudart_test

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/timing"
)

const incrPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry incr(.param .u64 pX, .param .u32 pN)
{
	.reg .pred %p<2>;
	.reg .f32 %f<3>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<4>;
	ld.param.u64 %rd1, [pX];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.u32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r5, 4;
	add.s64 %rd3, %rd1, %rd2;
	ld.global.f32 %f1, [%rd3];
	add.f32 %f2, %f1, 0f3F800000;
	st.global.f32 [%rd3], %f2;
DONE:
	ret;
}
`

func TestStreamsAndEvents(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	if _, err := ctx.RegisterModule(incrPTX); err != nil {
		t.Fatal(err)
	}
	s1 := ctx.StreamCreate()
	s2 := ctx.StreamCreate()
	ev := ctx.EventCreate()

	n := 256
	buf := make([]byte, 4*n)
	px, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	// async copy on s1, record event, make s2 wait on it — the
	// cudaStreamWaitEvent pattern the paper added for cuDNN (§III-B).
	if err := ctx.MemcpyHtoDAsync(px, buf, s1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.EventRecord(ev, s1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamWaitEvent(s2, ev); err != nil {
		t.Fatal(err)
	}
	p := cudart.NewParams().Ptr(px).U32(uint32(n))
	if _, err := ctx.LaunchOnStream(s2, "incr", exec.Dim3{X: 2}, exec.Dim3{X: 128}, p, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamSynchronize(s2); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(px, n)
	for i, v := range got {
		if v != 1 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
	// error paths: every call checks both of its handles
	if err := ctx.StreamWaitEvent(cudart.Stream(99), ev); err == nil {
		t.Fatal("expected invalid-stream error")
	}
	if err := ctx.StreamWaitEvent(s2, cudart.Event(99)); err == nil {
		t.Fatal("expected invalid-event error")
	}
	if err := ctx.EventRecord(cudart.Event(99), s1); err == nil {
		t.Fatal("expected invalid-event error")
	}
	if err := ctx.EventRecord(ev, cudart.Stream(99)); err == nil {
		t.Fatal("expected invalid-stream error")
	}
	ctx.StreamDestroy(s1)
	ctx.StreamDestroy(s2)
	if err := ctx.StreamSynchronize(s2); err == nil {
		t.Fatal("expected invalid-stream error for a destroyed stream")
	}
}

func TestLaunchErrors(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	if _, err := ctx.RegisterModule(incrPTX); err != nil {
		t.Fatal(err)
	}
	// unknown kernel
	if _, err := ctx.Launch("nope", exec.Dim3{X: 1}, exec.Dim3{X: 32}, cudart.NewParams(), 0); err == nil {
		t.Fatal("expected unknown-kernel error")
	}
	// short parameter buffer
	if _, err := ctx.Launch("incr", exec.Dim3{X: 1}, exec.Dim3{X: 32}, cudart.NewParams(), 0); err == nil {
		t.Fatal("expected parameter-size error")
	}
	// oversized block
	px, _ := ctx.Malloc(64)
	p := cudart.NewParams().Ptr(px).U32(4)
	if _, err := ctx.Launch("incr", exec.Dim3{X: 1}, exec.Dim3{X: 2048}, p, 0); err == nil {
		t.Fatal("expected block-size error")
	}
}

// TestLookupKernelFirstRegistrationWins: LookupKernel, and the name index
// behind it, resolve a kernel two modules define to the module registered
// first — incr adds 1, the
// second module's incr adds 2 — while the driver-API path still reaches
// the second through its explicit module handle, and an unknown name
// errors with the number of modules searched.
func TestLookupKernelFirstRegistrationWins(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	first, err := ctx.RegisterModule(incrPTX)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctx.LookupKernel("incr"); err != nil { // resolved once before the duplicate exists
		t.Fatal(err)
	}
	second, err := ctx.RegisterModule(strings.Replace(incrPTX, "0f3F800000", "0f40000000", 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second lookup is served from the index
		mod, k, err := ctx.LookupKernel("incr")
		if err != nil {
			t.Fatal(err)
		}
		if mod != first || k != first.Kernels["incr"] {
			t.Errorf("LookupKernel resolved to module %p kernel %p, want the first registration %p %p", mod, k, first, first.Kernels["incr"])
		}
	}
	px, _ := ctx.Malloc(4)
	ctx.MemcpyF32HtoD(px, []float32{10})
	p := cudart.NewParams().Ptr(px).U32(1)
	if _, err := ctx.Launch("incr", exec.Dim3{X: 1}, exec.Dim3{X: 32}, p, 0); err != nil {
		t.Fatal(err)
	}
	if got := ctx.MemcpyF32DtoH(px, 1)[0]; got != 11 {
		t.Errorf("runtime-API launch ran the second module's kernel: x = %v, want 11", got)
	}
	if _, err := ctx.CuLaunchKernel(second, "incr", exec.Dim3{X: 1}, exec.Dim3{X: 32}, p.Bytes(), 0); err != nil {
		t.Fatal(err)
	}
	if got := ctx.MemcpyF32DtoH(px, 1)[0]; got != 13 {
		t.Errorf("driver-API launch with the second module's handle: x = %v, want 13", got)
	}
	if _, _, err := ctx.LookupKernel("nope"); err == nil || !strings.Contains(err.Error(), `"nope" in 2 registered modules`) {
		t.Errorf("unknown name: error %v, want it to name the kernel and the 2 modules searched", err)
	}
}

// countingRunner is a StreamRunner that simulates nothing: every kernel
// reports as its cycles one more than the number of kernels before it,
// so a log record shows which launch it came from. Its ticket names no
// launch, so a record that keeps the launch's identity was filled from
// it. With failNext set, the next kernel's ticket fails instead.
// RunKernel is the form SetRunner takes; a context never calls it.
type countingRunner struct {
	kernels  uint64
	failNext bool
}

type countingTicket struct {
	st  cudart.KernelStats
	err error
}

func (t countingTicket) Stats() (cudart.KernelStats, error) { return t.st, t.err }

func (r *countingRunner) RunKernel(*exec.Grid) (cudart.KernelStats, error) {
	panic("a context only submits to a StreamRunner")
}

func (r *countingRunner) SubmitKernel(*exec.Grid, int) (cudart.AsyncTicket, error) {
	r.kernels++
	if r.failNext {
		r.failNext = false
		return countingTicket{err: errors.New("counting runner: failed")}, nil
	}
	return countingTicket{st: cudart.KernelStats{Cycles: r.kernels, Name: "runner", LaunchID: -1}}, nil
}

func (r *countingRunner) SubmitCopy(int, int, func()) cudart.AsyncTicket { return countingTicket{} }

func (r *countingRunner) DrainAll() error { return nil }

// TestKernelLogChunks: a launch-ordered log of eight chunks of sync and
// async launches, whose records are all distinct (each launch's cycles
// are its kernel count), holds every record with its launch id and the
// kernel's name and shape. Placeholder slots queued across a chunk edge
// are filled by the drain; a failed synchronous launch uses up a launch
// id and leaves no record, on a chunk's first and last slots as well as
// every 97th launch. The log retains at most 176 bytes per launch — the
// 144-byte record, its 16-byte entry and the record index — and
// KernelLogLen counts the records KernelStatsLog returns, in a slice its
// caller owns. Ranging KernelLog yields the same records, stops at a
// break, allocates nothing per record, and drains a launch still queued
// on a stream when the range starts.
func TestKernelLogChunks(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	r := &countingRunner{}
	ctx.SetRunner(r)
	if _, err := ctx.RegisterModule(incrPTX); err != nil {
		t.Fatal(err)
	}
	s := ctx.StreamCreate()
	px, _ := ctx.Malloc(4)
	p := cudart.NewParams().Ptr(px).U32(1)
	grid, block := exec.Dim3{X: 1}, exec.Dim3{X: 32}
	const chunk = cudart.KernelLogChunk
	const launches = 8 * chunk
	logged := make([]int, 0, launches) // launch ids that leave a record
	edgeFailed := -1                   // the log length at which a launch last failed on a chunk edge
	edgeDrops := 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		// async runs of 40 launches around every chunk edge, sync between
		stream := cudart.DefaultStream
		if d := (i + 20) % chunk; d < 40 {
			stream = s
		}
		edge := (len(logged)%chunk == 0 || len(logged)%chunk == chunk-1) && len(logged) != edgeFailed
		fails := stream == cudart.DefaultStream && (edge || i%97 == 0)
		if fails && edge {
			edgeFailed = len(logged)
			edgeDrops++
		}
		r.failNext = fails
		st, err := ctx.LaunchOnStream(stream, "incr", grid, block, p, 0)
		switch {
		case fails && err == nil:
			t.Fatalf("launch %d: failed kernel returned no error", i)
		case fails:
			continue
		case err != nil:
			t.Fatalf("launch %d: %v", i, err)
		case st.LaunchID != i || (stream == cudart.DefaultStream && st.Cycles != uint64(i+1)):
			t.Fatalf("launch %d returned %+v", i, st)
		}
		logged = append(logged, i)
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / launches
	log := ctx.KernelStatsLog()
	if len(log) != len(logged) || launches-len(logged) < launches/97 || edgeDrops < 2 {
		t.Fatalf("log holds %d records of %d launches, want %d (%d dropped on a chunk edge)", len(log), launches, len(logged), edgeDrops)
	}
	for j, k := range log {
		want := cudart.KernelStats{Name: "incr", LaunchID: logged[j], GridDim: grid, BlockDim: block, Cycles: uint64(logged[j] + 1)}
		if k != want {
			t.Fatalf("record %d: %+v, want %+v", j, k, want)
		}
	}
	t.Logf("%.1f bytes retained per launch (%d launches, %d records)", per, launches, len(log))
	if per > 144+32 {
		t.Errorf("%.1f bytes retained per launch, want at most %d", per, 144+32)
	}
	if n := ctx.KernelLogLen(); n != len(log) {
		t.Errorf("KernelLogLen %d, KernelStatsLog holds %d records", n, len(log))
	}
	if c := cap(log); c != len(log) {
		t.Errorf("KernelStatsLog capacity %d, want exactly its %d records", c, len(log))
	}
	j := 0
	for k := range ctx.KernelLog() {
		if j >= len(log) || k != log[j] {
			t.Fatalf("KernelLog record %d: %+v, KernelStatsLog holds %d records", j, k, len(log))
		}
		j++
	}
	if j != len(log) {
		t.Errorf("KernelLog yielded %d records, KernelStatsLog holds %d", j, len(log))
	}
	j = 0
	for range ctx.KernelLog() {
		if j++; j == chunk+1 {
			break
		}
	}
	if j != chunk+1 {
		t.Errorf("a break after %d records stopped the range at %d", chunk+1, j)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		for range ctx.KernelLog() {
		}
	}); allocs > 1 {
		t.Errorf("ranging %d records allocated %.0f times, want at most once per range", len(log), allocs)
	}

	log[0].Cycles = 0 // the caller owns the slice
	if again := ctx.KernelStatsLog(); again[0].Cycles != uint64(logged[0]+1) {
		t.Errorf("a write to a returned slice reached the log: record 0 reads %+v", again[0])
	}

	if _, err := ctx.LaunchOnStream(s, "incr", grid, block, p, 0); err != nil {
		t.Fatal(err)
	}
	var last cudart.KernelStats
	for k := range ctx.KernelLog() {
		last = k
	}
	if want := (cudart.KernelStats{Name: "incr", LaunchID: launches, GridDim: grid, BlockDim: block, Cycles: r.kernels}); last != want {
		t.Errorf("a launch queued when the range started reads %+v, want its final %+v", last, want)
	}
}

// TestParamsOneAllocation: marshalling the parameters of any library
// kernel allocates the buffer once; Ptr and U32 never grow it.
func TestParamsOneAllocation(t *testing.T) {
	mods, err := kernels.ParsedModules()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		for name, k := range m.Kernels {
			var buf []byte
			allocs := testing.AllocsPerRun(10, func() {
				p := cudart.NewParams()
				for _, prm := range k.Params {
					switch prm.Size {
					case 8:
						p.Ptr(0)
					case 4:
						p.U32(0)
					default:
						t.Fatalf("%s: parameter %s has size %d", name, prm.Name, prm.Size)
					}
				}
				buf = p.Bytes()
			})
			if allocs != 1 || len(buf) != k.ParamBytes() {
				t.Errorf("%s: %v allocations for a %d-byte parameter block (%d marshalled)", name, allocs, k.ParamBytes(), len(buf))
			}
		}
	}
}

func TestMemoryAPIs(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	a, err := ctx.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float32{1, 2, 3, 4}
	ctx.MemcpyF32HtoD(b, vals)
	got := ctx.MemcpyF32DtoH(b, 4)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("HtoD then DtoH [%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	ctx.Memset(b, 0, 16)
	got = ctx.MemcpyF32DtoH(b, 4)
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("memset[%d] = %v", i, got[i])
		}
	}
	if err := ctx.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(a); err == nil {
		t.Fatal("double free not detected")
	}
}

// TestTypedCopyAllocs: the float32 copies and Memset move bytes in
// place — into resident pages they allocate nothing, and MemcpyF32DtoH
// allocates only the slice it returns. A zero or negative length is an
// empty transfer, as a 0-byte cudaMemcpy is.
func TestTypedCopyAllocs(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	const n = 3000 // a little under three pages of floats
	dst, err := ctx.Malloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) / 7
	}
	ctx.MemcpyF32HtoD(dst, src) // fault the pages in
	resident := ctx.Mem.TouchedBytes()
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"MemcpyF32HtoD", 0, func() { ctx.MemcpyF32HtoD(dst+2, src[:n-1]) }},
		{"Memset", 0, func() { ctx.Memset(dst+1, 0x5a, 4*n-1) }},
		{"Memset zero", 0, func() { ctx.Memset(dst, 0, 4*n) }},
		{"MemcpyF32DtoH", 1, func() { ctx.MemcpyF32DtoH(dst+3, n-1) }},
	} {
		if got := testing.AllocsPerRun(10, c.f); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
	if got := ctx.Mem.TouchedBytes(); got != resident {
		t.Errorf("copies into resident pages changed residency: %d -> %d bytes", resident, got)
	}

	ctx.MemcpyF32HtoD(dst, src)
	for _, k := range []int{0, -1, -4096} {
		if got := ctx.MemcpyF32DtoH(dst, k); got == nil || len(got) != 0 {
			t.Errorf("MemcpyF32DtoH(n=%d) = %v, want an empty slice", k, got)
		}
		ctx.Memset(dst, 0xff, k)
		ctx.MemcpyF32HtoD(dst, nil)
	}
	if got := ctx.MemcpyF32DtoH(dst, n); !slices.Equal(got, src) {
		t.Error("an empty transfer changed device memory")
	}
}

// badPTX parses, but its one kernel fails when it runs.
const badPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry bad()
{
	.reg .b32 %r<3>;
	add.u32 %r1, %r2;
	ret;
}
`

// TestDefaultStreamSync: on the legacy default stream, in functional and
// performance mode alike, a failed launch returns its own error, naming
// kernel and launch, from the launch; it is neither kept as the sticky
// async error nor logged, and the next launch logs as usual.
// MemcpyHtoDAsync there writes at once, with no modelled copy time.
func TestDefaultStreamSync(t *testing.T) {
	for _, perf := range []bool{false, true} {
		ctx := cudart.NewContext(exec.BugSet{})
		cycle := func() uint64 { return 0 }
		if perf {
			eng, err := timing.New(timing.GTX1050())
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx.SetRunner(timing.Runner{E: eng})
			cycle = eng.Cycle
		}
		for _, src := range []string{badPTX, incrPTX} {
			if _, err := ctx.RegisterModule(src); err != nil {
				t.Fatal(err)
			}
		}
		px, _ := ctx.Malloc(4)
		if err := ctx.MemcpyHtoDAsync(px, binary.LittleEndian.AppendUint32(nil, math.Float32bits(10)), cudart.DefaultStream); err != nil {
			t.Fatal(err)
		}
		var got [4]byte
		if ctx.Mem.Read(px, got[:]); math.Float32frombits(binary.LittleEndian.Uint32(got[:])) != 10 || cycle() != 0 {
			t.Errorf("perf=%v: default-stream MemcpyHtoDAsync left %v after %d modelled cycles, want 10 written at once", perf, got, cycle())
		}
		_, err := ctx.Launch("bad", exec.Dim3{X: 1}, exec.Dim3{X: 32}, cudart.NewParams(), 0)
		if err == nil || !strings.HasPrefix(err.Error(), "cudart: kernel bad (launch 0): ") {
			t.Errorf("perf=%v: the failed launch returned %v, want it named kernel bad, launch 0", perf, err)
		}
		if err := ctx.DeviceSynchronize(); err != nil {
			t.Errorf("perf=%v: DeviceSynchronize after the failed launch returned %v: it was kept sticky", perf, err)
		}
		if _, err := ctx.Launch("incr", exec.Dim3{X: 1}, exec.Dim3{X: 32}, cudart.NewParams().Ptr(px).U32(1), 0); err != nil {
			t.Fatal(err)
		}
		if log := ctx.KernelStatsLog(); len(log) != 1 || log[0].Name != "incr" || log[0].LaunchID != 1 {
			t.Errorf("perf=%v: kernel log %+v, want only incr as launch 1", perf, log)
		}
		if got := ctx.MemcpyF32DtoH(px, 1)[0]; got != 11 {
			t.Errorf("perf=%v: x = %v after incr, want 11", perf, got)
		}
	}
}

// TestStickyAsyncError: a queued kernel's failure, drained implicitly by
// a synchronous copy, is stored and returned once by the next explicit
// sync, CUDA style; the sync after that succeeds.
func TestStickyAsyncError(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetRunner(timing.Runner{E: eng})
	if _, err := ctx.RegisterModule(badPTX); err != nil {
		t.Fatal(err)
	}
	s := ctx.StreamCreate()
	if _, err := ctx.LaunchOnStream(s, "bad", exec.Dim3{X: 1}, exec.Dim3{X: 32}, cudart.NewParams(), 0); err != nil {
		t.Fatalf("queueing the launch failed: %v", err)
	}
	px, _ := ctx.Malloc(4)
	ctx.MemcpyHtoD(px, make([]byte, 4)) // drains the queue; the error is stored
	if err := ctx.DeviceSynchronize(); err == nil || !strings.Contains(err.Error(), "add") {
		t.Fatalf("DeviceSynchronize after the failed drain returned %v, want the kernel's error", err)
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatalf("second DeviceSynchronize returned %v, want nil: the error is returned once", err)
	}
}
