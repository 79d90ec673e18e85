package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/ptx"
)

// testEnv bundles a machine with a memory image for kernel tests.
type testEnv struct {
	mem   *device.Memory
	alloc *device.Allocator
	m     *Machine
}

func newEnv(t testing.TB, bugs BugSet) *testEnv {
	t.Helper()
	mem := device.NewMemory()
	return &testEnv{
		mem:   mem,
		alloc: device.NewAllocator(),
		m:     NewMachine(bugs, mem, device.NewTextureRegistry()),
	}
}

func (e *testEnv) allocF32(t *testing.T, vals []float32) uint64 {
	t.Helper()
	addr, err := e.alloc.Alloc(uint64(4 * len(vals)))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	e.mem.Write(addr, buf)
	return addr
}

func (e *testEnv) allocU32(t *testing.T, vals []uint32) uint64 {
	t.Helper()
	addr, err := e.alloc.Alloc(uint64(4 * len(vals)))
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	e.mem.Write(addr, buf)
	return addr
}

func (e *testEnv) readF32(n int, addr uint64) []float32 {
	buf := make([]byte, 4*n)
	e.mem.Read(addr, buf)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

func (e *testEnv) readU32(n int, addr uint64) []uint32 {
	buf := make([]byte, 4*n)
	e.mem.Read(addr, buf)
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return out
}

// params marshals kernel arguments: u64 pointers and u32 scalars.
func params(args ...interface{}) []byte {
	var buf []byte
	for _, a := range args {
		switch v := a.(type) {
		case uint64:
			off := (len(buf) + 7) &^ 7
			for len(buf) < off {
				buf = append(buf, 0)
			}
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			buf = append(buf, b[:]...)
		case uint32:
			off := (len(buf) + 3) &^ 3
			for len(buf) < off {
				buf = append(buf, 0)
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], v)
			buf = append(buf, b[:]...)
		case int:
			off := (len(buf) + 3) &^ 3
			for len(buf) < off {
				buf = append(buf, 0)
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			buf = append(buf, b[:]...)
		case float32:
			off := (len(buf) + 3) &^ 3
			for len(buf) < off {
				buf = append(buf, 0)
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			buf = append(buf, b[:]...)
		default:
			panic("params: unsupported arg type")
		}
	}
	return buf
}

func mustKernel(t *testing.T, src, name string) *ptx.Kernel {
	t.Helper()
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := m.Kernels[name]
	if k == nil {
		t.Fatalf("kernel %s not found", name)
	}
	return k
}

const vecAddSrc = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry vecadd(
	.param .u64 pA, .param .u64 pB, .param .u64 pC, .param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<4>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<8>;

	ld.param.u64 %rd1, [pA];
	ld.param.u64 %rd2, [pB];
	ld.param.u64 %rd3, [pC];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.s32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd4, %rd1;
	mul.wide.s32 %rd5, %r5, 4;
	add.s64 %rd6, %rd4, %rd5;
	ld.global.f32 %f1, [%rd6];
	cvta.to.global.u64 %rd4, %rd2;
	add.s64 %rd7, %rd4, %rd5;
	ld.global.f32 %f2, [%rd7];
	add.f32 %f3, %f1, %f2;
	cvta.to.global.u64 %rd4, %rd3;
	add.s64 %rd6, %rd4, %rd5;
	st.global.f32 [%rd6], %f3;
DONE:
	ret;
}
`

func TestVecAdd(t *testing.T) {
	e := newEnv(t, BugSet{})
	n := 100 // not a multiple of 32: exercises the guard branch
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(i)
		b[i] = float32(2 * i)
	}
	pa, pb := e.allocF32(t, a), e.allocF32(t, b)
	pc := e.allocF32(t, make([]float32, n))

	k := mustKernel(t, vecAddSrc, "vecadd")
	g, err := e.m.NewGrid(k, Dim3{X: (n + 63) / 64}, Dim3{X: 64}, params(pa, pb, pc, n), 0)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readF32(n, pc)
	for i := 0; i < n; i++ {
		if got[i] != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], float32(3*i))
		}
	}
	// Coverage must include the exercised paths.
	if e.m.Coverage().Count(CovKey{Op: ptx.OpAdd, T: ptx.F32}) == 0 {
		t.Error("coverage missing add.f32")
	}
}

func TestDivergenceDiamond(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry diamond(.param .u64 pOut)
{
	.reg .pred %p<2>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<4>;

	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 1;
	setp.eq.s32 %p1, %r2, 0;
	@%p1 bra EVEN;
	mul.lo.s32 %r3, %r1, 3;
	bra JOIN;
EVEN:
	mul.lo.s32 %r3, %r1, 2;
JOIN:
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.s32 %rd2, %r1, 4;
	add.s64 %rd1, %rd1, %rd2;
	st.global.s32 [%rd1], %r3;
	ret;
}
`
	e := newEnv(t, BugSet{})
	n := 64
	out := e.allocU32(t, make([]uint32, n))
	k := mustKernel(t, src, "diamond")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: n}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(n, out)
	for i := 0; i < n; i++ {
		want := uint32(i * 3)
		if i%2 == 0 {
			want = uint32(i * 2)
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestLoopAndNestedDivergence(t *testing.T) {
	// Each thread sums k for k in [0, tid): triangular numbers, with an
	// inner conditional to stress nested divergence (odd k doubled).
	src := `
.version 6.0
.target sm_61
.visible .entry tri(.param .u64 pOut)
{
	.reg .pred %p<4>;
	.reg .b32 %r<10>;
	.reg .b64 %rd<4>;

	mov.u32 %r1, %tid.x;
	mov.u32 %r2, 0;
	mov.u32 %r3, 0;
LOOP:
	setp.ge.u32 %p1, %r2, %r1;
	@%p1 bra DONE;
	and.b32 %r4, %r2, 1;
	setp.eq.u32 %p2, %r4, 1;
	@!%p2 bra SKIP;
	add.u32 %r3, %r3, %r2;
SKIP:
	add.u32 %r3, %r3, %r2;
	add.u32 %r2, %r2, 1;
	bra LOOP;
DONE:
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r1, 4;
	add.s64 %rd1, %rd1, %rd2;
	st.global.u32 [%rd1], %r3;
	ret;
}
`
	e := newEnv(t, BugSet{})
	n := 32
	out := e.allocU32(t, make([]uint32, n))
	k := mustKernel(t, src, "tri")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: n}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(n, out)
	for i := 0; i < n; i++ {
		var want uint32
		for kk := 0; kk < i; kk++ {
			want += uint32(kk)
			if kk%2 == 1 {
				want += uint32(kk)
			}
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestSharedMemoryReduction(t *testing.T) {
	// Classic tree reduction over 256 elements with bar.sync.
	src := `
.version 6.0
.target sm_61
.visible .entry reduce(.param .u64 pIn, .param .u64 pOut)
{
	.reg .pred %p<3>;
	.reg .f32 %f<4>;
	.reg .b32 %r<10>;
	.reg .b64 %rd<6>;
	.shared .align 4 .b8 sdata[1024];

	mov.u32 %r1, %tid.x;
	ld.param.u64 %rd1, [pIn];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r1, 4;
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
	ld.param.u64 %rd4, [pOut];
	cvta.to.global.u64 %rd4, %rd4;
	st.global.f32 [%rd4], %f3;
DONE:
	ret;
}
`
	e := newEnv(t, BugSet{})
	n := 256
	in := make([]float32, n)
	var want float32
	for i := range in {
		in[i] = float32(i%7) * 0.5
		want += in[i]
	}
	pin := e.allocF32(t, in)
	pout := e.allocF32(t, []float32{0})
	k := mustKernel(t, src, "reduce")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: n}, params(pin, pout), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readF32(1, pout)[0]
	if math.Abs(float64(got-want)) > 1e-3 {
		t.Fatalf("reduction = %v, want %v", got, want)
	}
}

func TestBarrierInDivergentFlowRejected(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry badbar()
{
	.reg .pred %p<2>;
	.reg .b32 %r<4>;
	mov.u32 %r1, %tid.x;
	setp.lt.u32 %p1, %r1, 16;
	@%p1 bra THEN;
	bra DONE;
THEN:
	bar.sync 0;
DONE:
	ret;
}
`
	e := newEnv(t, BugSet{})
	k := mustKernel(t, src, "badbar")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 32}, nil, 0)
	if err := e.m.RunGrid(g); err == nil {
		t.Fatal("expected divergent-barrier error, got nil")
	}
}

func TestAtomicsGlobal(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry hist(.param .u64 pOut)
{
	.reg .b32 %r<6>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 3;
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r2, 4;
	add.s64 %rd3, %rd1, %rd2;
	atom.global.add.u32 %r3, [%rd3], 1;
	ret;
}
`
	e := newEnv(t, BugSet{})
	out := e.allocU32(t, make([]uint32, 4))
	k := mustKernel(t, src, "hist")
	g, _ := e.m.NewGrid(k, Dim3{X: 2}, Dim3{X: 64}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(4, out)
	for i, v := range got {
		if v != 32 {
			t.Errorf("bin %d = %d, want 32", i, v)
		}
	}
}

func TestTextureFetch(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.global .texref mytex;
.visible .entry texk(.param .u64 pOut)
{
	.reg .f32 %f<6>;
	.reg .b32 %r<4>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %tid.x;
	tex.1d.v4.f32.s32 {%f1, %f2, %f3, %f4}, [mytex, {%r1}];
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r1, 4;
	add.s64 %rd3, %rd1, %rd2;
	st.global.f32 [%rd3], %f1;
	ret;
}
`
	e := newEnv(t, BugSet{})
	arr := device.NewCudaArray(32, 1, 1)
	for i := range arr.Data {
		arr.Data[i] = float32(i) * 1.5
	}
	ref := &device.TexRef{}
	e.m.Tex.RegisterTexture("mytex", ref)
	if err := e.m.Tex.BindTextureToArray(ref, arr); err != nil {
		t.Fatalf("bind: %v", err)
	}
	out := e.allocF32(t, make([]float32, 32))
	k := mustKernel(t, src, "texk")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 32}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readF32(32, out)
	for i := range got {
		if got[i] != float32(i)*1.5 {
			t.Fatalf("tex[%d] = %v, want %v", i, got[i], float32(i)*1.5)
		}
	}
}

// remTestSrc computes out[i] = a[i] % b[i] with the given type specifier.
const remTestSrc = `
.version 6.0
.target sm_61
.visible .entry remk(.param .u64 pA, .param .u64 pB, .param .u64 pOut)
{
	.reg .b32 %r<8>;
	.reg .b64 %rd<8>;
	mov.u32 %r1, %tid.x;
	ld.param.u64 %rd1, [pA];
	ld.param.u64 %rd2, [pB];
	ld.param.u64 %rd3, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	cvta.to.global.u64 %rd3, %rd3;
	mul.wide.u32 %rd4, %r1, 4;
	add.s64 %rd5, %rd1, %rd4;
	add.s64 %rd6, %rd2, %rd4;
	add.s64 %rd7, %rd3, %rd4;
	ld.global.u32 %r2, [%rd5];
	ld.global.u32 %r3, [%rd6];
	rem.s32 %r4, %r2, %r3;
	st.global.u32 [%rd7], %r4;
	ret;
}
`

func TestRemSignedCorrect(t *testing.T) {
	e := newEnv(t, BugSet{})
	a := []uint32{uint32(0x80000000), 100, uint32(^uint32(6) + 1), 7} // -2^31, 100, -7, 7
	b := []uint32{7, 30, 3, uint32(^uint32(2) + 1)}                   // 7, 30, 3, -3
	pa, pb := e.allocU32(t, a), e.allocU32(t, b)
	po := e.allocU32(t, make([]uint32, 4))
	k := mustKernel(t, remTestSrc, "remk")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 4}, params(pa, pb, po), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(4, po)
	for i := range a {
		want := uint32(int32(a[i]) % int32(b[i]))
		if got[i] != want {
			t.Errorf("rem.s32(%d, %d) = %d, want %d", int32(a[i]), int32(b[i]), int32(got[i]), int32(want))
		}
	}
}

func TestRemBugInjection(t *testing.T) {
	// With the paper's original bug injected, signed remainders of negative
	// inputs are computed as u64 remainders and come out wrong.
	e := newEnv(t, BugSet{RemU64: true})
	a := []uint32{uint32(^uint32(6) + 1)} // -7
	b := []uint32{3}
	pa, pb := e.allocU32(t, a), e.allocU32(t, b)
	po := e.allocU32(t, make([]uint32, 1))
	k := mustKernel(t, remTestSrc, "remk")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 1}, params(pa, pb, po), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := int32(e.readU32(1, po)[0])
	correct := int32(-7) % 3
	if got == correct {
		t.Fatalf("bug injection had no effect: got the correct %d", got)
	}
}

func TestPartialWarpAndMultiDim(t *testing.T) {
	// 2D block 5x3 (15 threads, partial warp), 2x2 grid: writes
	// out[gy*W+gx] = gy*W+gx computed from tid/ctaid special registers.
	src := `
.version 6.0
.target sm_61
.visible .entry idx2d(.param .u64 pOut, .param .u32 pW)
{
	.reg .b32 %r<12>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, %tid.y;
	mov.u32 %r3, %ctaid.x;
	mov.u32 %r4, %ctaid.y;
	mov.u32 %r5, %ntid.x;
	mov.u32 %r6, %ntid.y;
	mad.lo.s32 %r7, %r3, %r5, %r1;
	mad.lo.s32 %r8, %r4, %r6, %r2;
	ld.param.u32 %r9, [pW];
	mad.lo.s32 %r10, %r8, %r9, %r7;
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.s32 %rd2, %r10, 4;
	add.s64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r10;
	ret;
}
`
	e := newEnv(t, BugSet{})
	W, H := 10, 6
	out := e.allocU32(t, make([]uint32, W*H))
	k := mustKernel(t, src, "idx2d")
	g, _ := e.m.NewGrid(k, Dim3{X: 2, Y: 2}, Dim3{X: 5, Y: 3}, params(out, W), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(W*H, out)
	for i := range got {
		if got[i] != uint32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], i)
		}
	}
}

func TestPredicatedExecution(t *testing.T) {
	// selp and guarded instructions (no branch): out = tid odd ? -tid : tid
	src := `
.version 6.0
.target sm_61
.visible .entry predk(.param .u64 pOut)
{
	.reg .pred %p<2>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 1;
	setp.eq.u32 %p1, %r2, 1;
	neg.s32 %r3, %r1;
	selp.b32 %r4, %r3, %r1, %p1;
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r1, 4;
	add.s64 %rd3, %rd1, %rd2;
	st.global.s32 [%rd3], %r4;
	@%p1 st.global.s32 [%rd3], %r4;
	ret;
}
`
	e := newEnv(t, BugSet{})
	out := e.allocU32(t, make([]uint32, 32))
	k := mustKernel(t, src, "predk")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 32}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(32, out)
	for i := range got {
		want := int32(i)
		if i%2 == 1 {
			want = -want
		}
		if int32(got[i]) != want {
			t.Fatalf("out[%d] = %d, want %d", i, int32(got[i]), want)
		}
	}
}

func TestVectorLoadStoreFloat2(t *testing.T) {
	// The FFT kernels use float2 (ld.global.v2.f32); swap re/im parts.
	src := `
.version 6.0
.target sm_61
.visible .entry swap2(.param .u64 pIn, .param .u64 pOut)
{
	.reg .f32 %f<4>;
	.reg .b32 %r<4>;
	.reg .b64 %rd<6>;
	mov.u32 %r1, %tid.x;
	ld.param.u64 %rd1, [pIn];
	ld.param.u64 %rd2, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	mul.wide.u32 %rd3, %r1, 8;
	add.s64 %rd4, %rd1, %rd3;
	add.s64 %rd5, %rd2, %rd3;
	ld.global.v2.f32 {%f1, %f2}, [%rd4];
	st.global.v2.f32 [%rd5], {%f2, %f1};
	ret;
}
`
	e := newEnv(t, BugSet{})
	n := 16
	in := make([]float32, 2*n)
	for i := range in {
		in[i] = float32(i) + 0.25
	}
	pin := e.allocF32(t, in)
	pout := e.allocF32(t, make([]float32, 2*n))
	k := mustKernel(t, src, "swap2")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: n}, params(pin, pout), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readF32(2*n, pout)
	for i := 0; i < n; i++ {
		if got[2*i] != in[2*i+1] || got[2*i+1] != in[2*i] {
			t.Fatalf("pair %d = (%v,%v), want (%v,%v)", i, got[2*i], got[2*i+1], in[2*i+1], in[2*i])
		}
	}
}

func TestBrevKernel(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry brevk(.param .u64 pOut)
{
	.reg .b32 %r<4>;
	.reg .b64 %rd<4>;
	mov.u32 %r1, %tid.x;
	brev.b32 %r2, %r1;
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r1, 4;
	add.s64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r2;
	ret;
}
`
	e := newEnv(t, BugSet{})
	out := e.allocU32(t, make([]uint32, 32))
	k := mustKernel(t, src, "brevk")
	g, _ := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 32}, params(out), 0)
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	got := e.readU32(32, out)
	for i := range got {
		var want uint32
		x := uint32(i)
		for b := 0; b < 32; b++ {
			want = want<<1 | (x & 1)
			x >>= 1
		}
		if got[i] != want {
			t.Fatalf("brev(%d) = %#x, want %#x", i, got[i], want)
		}
	}
}

// TestMalformedInstructionsError feeds the interpreter instructions the
// parser accepts but no handler can execute — wrong operand counts and
// kinds, mismatched vector widths, unknown symbols, addresses that go
// negative. Each used to be an index- or slice-out-of-range panic reachable
// from `gpgpusim file.ptx`; each must now be an error raised when the
// instruction executes, naming it, and must leave the machine able to run
// a good kernel.
func TestMalformedInstructionsError(t *testing.T) {
	const wrap = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry bad(.param .u64 p)
{
	.reg .pred %%p<3>;
	.reg .b32 %%r<8>;
	.reg .f32 %%f<8>;
	.reg .b64 %%rd<4>;
	.shared .align 4 .b8 sbuf[64];
	ld.param.u64 %%rd1, [p];
	%s
	ret;
}
`
	e := newEnv(t, BugSet{})
	buf := e.allocF32(t, make([]float32, 64))
	good := mustKernel(t, vecAddSrc, "vecadd")
	for _, tc := range []struct{ name, body, want string }{
		{"six operands", `add.s32 %r1,%r2,%r3,%r4,%r5,%r6;`, "add takes 2 source operands, got 5"},
		{"one source for setp", `setp.lt.s32 %p1,%r1;`, "setp takes 2 source operands, got 1"},
		{"three sources for bfi", `bfi.b32 %r1,%r2,%r3,%r4;`, "bfi takes 4 source operands, got 3"},
		{"short vector destination", `ld.global.v4.f32 {%f1,%f2},[%rd1];`, "vector operand has 2 elements, want 4"},
		{"scalar destination on a vector load", `ld.global.v2.f32 %f1,[%rd1];`, "vector operand"},
		{"vector value on a scalar store", `st.global.f32 [%rd1],{%f1,%f2};`, "vector operand on a scalar access"},
		{"store without a value", `st.global.f32 [%rd1];`, "st takes an address and a value"},
		{"load without an address", `ld.global.f32 %r1;`, "ld takes a destination and an address"},
		{"load from a register", `ld.global.f32 %f1,%r1;`, "load source is not a memory operand"},
		{"atomic on a register", `atom.global.add.f32 %f1,%f2,%f3;`, "atomic target is not a memory operand"},
		{"cas without a swap value", `atom.global.cas.b32 %r1,[%rd1],%r2;`, "atom.cas takes an address and 2 values"},
		{"unknown symbol", `mov.u32 %r1, nosuch;`, `unknown symbol "nosuch"`},
		{"unknown symbol base", `ld.shared.f32 %f1,[nosuch+4];`, `unknown symbol "nosuch"`},
		{"negative shared address", "mov.u64 %rd1, -4;\n\tld.shared.s32 %r1,[%rd1];", "shared load out of bounds"},
		{"negative shared store", "mov.u64 %rd1, -4;\n\tst.shared.u32 [%rd1],%r1;", "shared store out of bounds"},
		{"shared access past the end", "mov.u64 %rd1, 62;\n\tld.shared.s32 %r1,[%rd1];", "shared load out of bounds"},
		{"negative parameter offset", `ld.param.s32 %r1,[p+-16];`, "param load out of bounds"},
		{"parameter read past the end", `ld.param.u64 %rd2,[p+4];`, "param load out of bounds"},
		{"local access without local memory", `ld.local.u32 %r1,[%rd1];`, "local load out of bounds"},
		{"store to a parameter", `st.param.u32 [p],%r1;`, "store to parameter space"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := mustKernel(t, fmt.Sprintf(wrap, tc.body), "bad")
			g, err := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 64}, params(buf), 0)
			if err != nil {
				t.Fatalf("NewGrid: %v (decode errors must wait until the instruction executes)", err)
			}
			err = e.m.RunGrid(g)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunGrid error = %v, want one containing %q", err, tc.want)
			}
			bad := strings.TrimSpace(tc.body[strings.LastIndexByte(tc.body, '\n')+1:])
			if op := bad[:strings.IndexByte(bad, '.')]; !strings.Contains(err.Error(), `"`+op) {
				t.Errorf("error %q does not quote the %s instruction", err, op)
			}

			// the same machine still runs a good kernel
			out := e.allocF32(t, make([]float32, 64))
			gg, err := e.m.NewGrid(good, Dim3{X: 1}, Dim3{X: 64}, params(buf, buf, out, 64), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.m.RunGrid(gg); err != nil {
				t.Fatalf("good kernel after a bad one: %v", err)
			}
		})
	}

	// an instruction that cannot execute is harmless until it does
	k := mustKernel(t, fmt.Sprintf(wrap, "setp.ne.u32 %p1, 0, 0;\n\t@%p1 mov.u32 %r1, nosuch;"), "bad")
	g, err := e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 64}, params(buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("guarded-off malformed instruction raised %v", err)
	}

	// operands past the ones an opcode reads are ignored, as they always were
	k = mustKernel(t, fmt.Sprintf(wrap, "mov.u32 %r2, 5;\n\tmov.u32 %r3, 7;\n\tadd.s32 %r1,%r2,%r3,%r4;\n\tst.global.u32 [%rd1],%r1;"), "bad")
	if g, err = e.m.NewGrid(k, Dim3{X: 1}, Dim3{X: 1}, params(buf), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.m.RunGrid(g); err != nil {
		t.Fatalf("trailing operand raised %v", err)
	}
	if got := e.mem.Load(buf, 4); got != 12 {
		t.Fatalf("add with a trailing operand stored %d, want 12", got)
	}
}

// TestRunGridBlocksStartZeroed: RunGrid runs every block of a grid through
// one set of register files and one shared-memory buffer, so each block
// must still start from zeroed registers, shared and local memory, and a
// fresh %clock.
func TestRunGridBlocksStartZeroed(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.address_size 64
.visible .entry stale(.param .u64 pOut)
{
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;
	.shared .align 4 .b8 sbuf[4];
	.local .align 4 .b8 lbuf[4];
	ld.param.u64 %rd1, [pOut];
	mov.u32 %r7, %clock;
	add.u32 %r1, %r1, 1;
	ld.shared.u32 %r2, [sbuf];
	add.u32 %r2, %r2, 5;
	st.shared.u32 [sbuf], %r2;
	ld.local.u32 %r3, [lbuf];
	add.u32 %r3, %r3, 7;
	st.local.u32 [lbuf], %r3;
	add.u32 %r4, %r1, %r2;
	add.u32 %r4, %r4, %r3;
	add.u32 %r4, %r4, %r7;
	mov.u32 %r5, %ctaid.x;
	mul.wide.u32 %rd2, %r5, 4;
	add.s64 %rd3, %rd1, %rd2;
	st.global.u32 [%rd3], %r4;
	ret;
}
`
	e := newEnv(t, BugSet{})
	const ctas = 5
	out := e.allocU32(t, make([]uint32, ctas))
	g, err := e.m.NewGrid(mustKernel(t, src, "stale"), Dim3{X: ctas}, Dim3{X: 1}, params(out), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.m.RunGrid(g); err != nil {
		t.Fatal(err)
	}
	for i, v := range e.readU32(ctas, out) {
		if v != 1+5+7+2 { // %clock is 2 at the second instruction
			t.Errorf("block %d computed %d from its start state, want 15", i, v)
		}
	}
}
