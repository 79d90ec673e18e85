package cudart_test

import (
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/kernels"
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

// countingRunner is a StreamRunner that simulates nothing: every kernel,
// run or drained, reports as its cycles one more than the number of
// kernels before it, so a log record shows which launch it came from.
type countingRunner struct {
	kernels uint64
	queued  []*countingTicket
}

type countingTicket struct {
	st   cudart.KernelStats
	done bool
}

func (t *countingTicket) Stats() (cudart.KernelStats, error) { return t.st, nil }
func (t *countingTicket) Done() bool                         { return t.done }

func (r *countingRunner) RunKernel(*exec.Grid) (cudart.KernelStats, error) {
	r.kernels++
	return cudart.KernelStats{Cycles: r.kernels}, nil
}

func (r *countingRunner) SubmitKernel(*exec.Grid, int) (cudart.AsyncTicket, error) {
	r.kernels++
	t := &countingTicket{st: cudart.KernelStats{Cycles: r.kernels, Name: "runner", LaunchID: -1}}
	r.queued = append(r.queued, t)
	return t, nil
}

func (r *countingRunner) SubmitCopy(int, int, func()) cudart.AsyncTicket {
	return &countingTicket{}
}

func (r *countingRunner) DrainAll() error {
	for _, t := range r.queued {
		t.done = true
	}
	r.queued = r.queued[:0]
	return nil
}

// TestKernelLogChunks: the launch-ordered log holds more than two chunks
// of sync and async launches; every record keeps its launch id as its
// index and the kernel's name across chunk edges, placeholder slots
// queued across a chunk edge are filled in place by the drain, a repeated
// KernelStatsLog call returns the same slice without allocating.
func TestKernelLogChunks(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	ctx.SetRunner(&countingRunner{})
	if _, err := ctx.RegisterModule(incrPTX); err != nil {
		t.Fatal(err)
	}
	s := ctx.StreamCreate()
	px, _ := ctx.Malloc(4)
	p := cudart.NewParams().Ptr(px).U32(1)
	const chunk = cudart.KernelLogChunk
	launches := 2*chunk + chunk/2
	for i := 0; i < launches; i++ {
		// async runs of 40 launches around every chunk edge, sync between
		stream := cudart.DefaultStream
		if d := (i + 20) % chunk; d < 40 {
			stream = s
		}
		ph, err := ctx.LaunchOnStream(stream, "incr", exec.Dim3{X: 1}, exec.Dim3{X: 32}, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ph.LaunchID != i {
			t.Fatalf("launch %d returned launch id %d", i, ph.LaunchID)
		}
	}
	log := ctx.KernelStatsLog()
	if len(log) != launches {
		t.Fatalf("log holds %d records, want %d", len(log), launches)
	}
	for i, k := range log {
		if k.LaunchID != i || k.Name != "incr" || k.Cycles != uint64(i+1) {
			t.Fatalf("record %d: %+v, want launch id %d, name incr, cycles %d", i, k, i, i+1)
		}
	}
	if again := ctx.KernelStatsLog(); &again[0] != &log[0] || len(again) != len(log) {
		t.Error("a second KernelStatsLog call built a new slice")
	}
	if n := testing.AllocsPerRun(10, func() { ctx.KernelStatsLog() }); n != 0 {
		t.Errorf("KernelStatsLog allocated %v times on an unchanged log", n)
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
