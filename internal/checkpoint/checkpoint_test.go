package checkpoint_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/ref"
	"repro/internal/timing"
)

// workload launches a 3-kernel pipeline (relu, gemm, relu) so the
// checkpoint can land inside the middle kernel.
func workload(t *testing.T, ctx *cudart.Context, h *cudnn.Handle, x, w []float32, m, n, k int) (uint64, error) {
	t.Helper()
	px, err := ctx.Malloc(uint64(4 * len(x)))
	if err != nil {
		return 0, err
	}
	ctx.MemcpyF32HtoD(px, x)
	pw, err := ctx.Malloc(uint64(4 * len(w)))
	if err != nil {
		return 0, err
	}
	ctx.MemcpyF32HtoD(pw, w)
	pa, err := ctx.Malloc(uint64(4 * len(x)))
	if err != nil {
		return 0, err
	}
	pc, err := ctx.Malloc(uint64(4 * m * n))
	if err != nil {
		return 0, err
	}
	if err := h.ActivationForward(px, pa, len(x)); err != nil {
		return 0, err
	}
	if err := h.Gemm(pa, pw, pc, m, n, k, 1, 0); err != nil {
		return 0, err
	}
	if err := h.ActivationForward(pc, pc, m*n); err != nil {
		return 0, err
	}
	return pc, nil
}

func expected(x, w []float32, m, n, k int) []float32 {
	a := ref.Relu(x)
	c := make([]float32, m*n)
	ref.Gemm(a, w, c, m, n, k, 1, 0)
	return ref.Relu(c)
}

func TestCheckpointResumeMatchesDirectRun(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	m, n, k := 48, 40, 32
	x := make([]float32, m*k)
	w := make([]float32, k*n)
	for i := range x {
		x[i] = rng.Float32()*2 - 1
	}
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	want := expected(x, w, m, n, k)

	points := []checkpoint.Point{
		{KernelX: 1, CTAM: 2, CTAT: 1, InstrY: 40}, // inside the gemm
		{KernelX: 1, CTAM: 0, CTAT: 2, InstrY: 5},  // from the very start
		{KernelX: 2, CTAM: 0, CTAT: 0, InstrY: 10}, // inside the last relu
	}
	for _, p := range points {
		// --- capture phase (functional fast-forward) ---
		ctx := cudart.NewContext(exec.BugSet{})
		h, err := cudnn.Create(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cap := &checkpoint.CaptureRunner{Ctx: ctx, P: p}
		ctx.SetRunner(cap)
		if _, err := workload(t, ctx, h, x, w, m, n, k); err != nil {
			t.Fatalf("capture workload: %v", err)
		}
		if cap.State == nil {
			t.Fatalf("point %+v: no checkpoint captured", p)
		}
		blob, err := cap.State.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		st, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}

		// --- resume phase (performance mode) ---
		ctx2 := cudart.NewContext(exec.BugSet{})
		h2, err := cudnn.Create(ctx2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := timing.New(timing.GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		ctx2.SetRunner(&checkpoint.ResumeRunner{Runner: timing.Runner{E: eng}, Ctx: ctx2, State: st})
		pc, err := workload(t, ctx2, h2, x, w, m, n, k)
		if err != nil {
			t.Fatalf("resume workload: %v", err)
		}
		got := ctx2.MemcpyF32DtoH(pc, m*n)
		for i := range got {
			d := got[i] - want[i]
			if d < -1e-3 || d > 1e-3 {
				t.Fatalf("point %+v: result[%d] = %v, want %v", p, i, got[i], want[i])
			}
		}
		if eng.Cycle() == 0 {
			t.Fatalf("point %+v: resume did not run in performance mode", p)
		}
	}
}

// TestCheckpointCapturesData1 checks the checkpoint actually contains
// mid-kernel register/SIMT state for the in-flight CTAs.
func TestCheckpointCapturesData1(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m, n, k := 48, 40, 32
	x := make([]float32, m*k)
	w := make([]float32, k*n)
	for i := range x {
		x[i] = rng.Float32()
	}
	for i := range w {
		w[i] = rng.Float32()
	}
	ctx := cudart.NewContext(exec.BugSet{})
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := checkpoint.Point{KernelX: 1, CTAM: 0, CTAT: 1, InstrY: 25}
	cap := &checkpoint.CaptureRunner{Ctx: ctx, P: p}
	ctx.SetRunner(cap)
	if _, err := workload(t, ctx, h, x, w, m, n, k); err != nil {
		t.Fatal(err)
	}
	st := cap.State
	if st == nil {
		t.Fatal("no checkpoint")
	}
	if st.Kernel != "sgemm_tiled" {
		t.Fatalf("checkpoint kernel = %q, want sgemm_tiled", st.Kernel)
	}
	if len(st.CTAs) != 2 {
		t.Fatalf("expected 2 in-flight CTAs, got %d", len(st.CTAs))
	}
	for _, cs := range st.CTAs {
		if len(cs.Warps) == 0 {
			t.Fatal("CTA state missing warps")
		}
		var executed uint64
		nonZeroRegs := 0
		for _, ws := range cs.Warps {
			executed += ws.InstrCount
			for _, r := range ws.Regs {
				if r != 0 {
					nonZeroRegs++
				}
			}
			if len(ws.Stack) == 0 && !ws.Done {
				t.Fatal("live warp with empty SIMT stack")
			}
		}
		if executed == 0 {
			t.Fatal("in-flight CTA executed no instructions before snapshot")
		}
		if nonZeroRegs == 0 {
			t.Fatal("register file snapshot is all zeroes")
		}
		if len(cs.Shared) == 0 {
			t.Fatal("shared memory snapshot missing for tiled GEMM")
		}
	}
	if st.Mem == nil || len(st.Mem.PageNums) == 0 {
		t.Fatal("global memory snapshot (Data2) missing")
	}
}

// streamApp is a two-stream program. A host-written buffer is updated in
// place on the default stream; then each of two streams gets its weights
// by MemcpyHtoDAsync and runs a GEMM and an in-place relu; a
// default-stream add sums the two results. Its kernels in launch order:
// 0 relu (default), 1 gemm (s1), 2 gemm (s2), 3 relu (s1), 4 relu (s2),
// 5 add (default). It returns both streams' results and their sum.
func streamApp(t *testing.T, ctx *cudart.Context) []float32 {
	t.Helper()
	const m, n, k = 64, 48, 32
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	x, w1, w2 := make([]float32, m*k), make([]float32, k*n), make([]float32, k*n)
	for i := range x {
		x[i] = float32(i%9)*0.5 - 2
	}
	for i := range w1 {
		w1[i] = float32(i%5)*0.25 - 0.5
		w2[i] = float32(i%7)*0.125 - 0.375
	}
	var ptrs [6]uint64 // x, w1, w2, c1, c2, sum
	for i, floats := range []int{m * k, k * n, k * n, m * n, m * n, m * n} {
		if ptrs[i], err = ctx.Malloc(uint64(4 * floats)); err != nil {
			t.Fatal(err)
		}
	}
	px, pw1, pw2, pc1, pc2, psum := ptrs[0], ptrs[1], ptrs[2], ptrs[3], ptrs[4], ptrs[5]
	s1, s2 := ctx.StreamCreate(), ctx.StreamCreate()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx.MemcpyF32HtoD(px, x)
	must(h.ActivationForward(px, px, m*k))
	must(ctx.MemcpyHtoDAsync(pw1, f32Bytes(w1), s1))
	h.SetStream(s1)
	must(h.Gemm(px, pw1, pc1, m, n, k, 1, 0))
	must(ctx.MemcpyHtoDAsync(pw2, f32Bytes(w2), s2))
	h.SetStream(s2)
	must(h.Gemm(px, pw2, pc2, m, n, k, 1, 0))
	h.SetStream(s1)
	must(h.ActivationForward(pc1, pc1, m*n))
	h.SetStream(s2)
	must(h.ActivationForward(pc2, pc2, m*n))
	h.SetStream(cudart.DefaultStream)
	must(h.ResidualAdd(pc1, pc2, psum, m*n))
	out := ctx.MemcpyF32DtoH(pc1, m*n)
	out = append(out, ctx.MemcpyF32DtoH(pc2, m*n)...)
	out = append(out, ctx.MemcpyF32DtoH(psum, m*n)...)
	if err := ctx.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	return out
}

func f32Bytes(v []float32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

// differingBits counts the elements of a and b that are not the same bits.
func differingBits(a, b []float32) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			n++
		}
	}
	return n
}

// resumedRun is what a resumed run of streamApp shows.
type resumedRun struct {
	out    []float32
	cycles uint64
	stats  timing.Stats
	log    []cudart.KernelStats
}

// TestCheckpointMultiStreamResume is the multi-stream checkpoint
// differential. streamApp is checkpointed inside a non-default-stream
// kernel with CTAs before M, inside the other stream's, and inside a
// kernel that overlaps another stream's, then resumed at -j1 and -j4.
// The resumed outputs must be the bits of the uninterrupted functional
// and timing runs — Data2 loads at kernel x, so the host copies before
// it cannot overwrite what the kernels before it computed — the two
// worker counts must give the same cycles, Stats and kernel log, and the
// resumed run must overlap its streams: fewer engine cycles than its
// launches' cycles add up to.
func TestCheckpointMultiStreamResume(t *testing.T) {
	functional := streamApp(t, cudart.NewContext(exec.BugSet{}))
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := cudart.NewContext(exec.BugSet{})
	ctx.SetRunner(timing.Runner{E: eng})
	timed := streamApp(t, ctx)
	if d := differingBits(timed, functional); d != 0 {
		t.Fatalf("the uninterrupted timing run differs from the functional run in %d of %d outputs", d, len(functional))
	}

	points := []checkpoint.Point{
		{KernelX: 1, CTAM: 2, CTAT: 1, InstrY: 40}, // the gemm on s1, CTAs 0 and 1 done
		{KernelX: 2, CTAM: 0, CTAT: 2, InstrY: 25}, // the gemm on s2
		{KernelX: 3, CTAM: 1, CTAT: 0, InstrY: 5},  // the relu on s1, beside s2's
	}
	for _, p := range points {
		t.Run(fmt.Sprintf("x%d_M%d", p.KernelX, p.CTAM), func(t *testing.T) {
			ctx := cudart.NewContext(exec.BugSet{})
			capture := &checkpoint.CaptureRunner{Ctx: ctx, P: p}
			ctx.SetRunner(capture)
			streamApp(t, ctx)
			if capture.State == nil {
				t.Fatal("no checkpoint captured")
			}
			blob, err := capture.State.Encode()
			if err != nil {
				t.Fatal(err)
			}
			var runs []resumedRun
			for _, workers := range []int{1, 4} {
				st, err := checkpoint.Decode(blob)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				ctx := cudart.NewContext(exec.BugSet{})
				ctx.SetRunner(&checkpoint.ResumeRunner{Runner: timing.Runner{E: eng}, Ctx: ctx, State: st})
				out := streamApp(t, ctx)
				runs = append(runs, resumedRun{out, eng.Cycle(), *eng.Stats(), ctx.KernelStatsLog()})
			}
			r := runs[0]
			if d := differingBits(r.out, functional); d != 0 {
				t.Errorf("%d of %d resumed outputs differ from the uninterrupted functional run", d, len(functional))
			}
			if d := differingBits(r.out, timed); d != 0 {
				t.Errorf("%d of %d resumed outputs differ from the uninterrupted timing run", d, len(timed))
			}
			if j4 := runs[1]; r.cycles != j4.cycles || !reflect.DeepEqual(r.stats, j4.stats) || !slices.Equal(r.log, j4.log) {
				t.Errorf("-j1 and -j4 disagree: %d and %d cycles, Stats equal %v, kernel log equal %v",
					r.cycles, j4.cycles, reflect.DeepEqual(r.stats, j4.stats), slices.Equal(r.log, j4.log))
			}
			var sum uint64
			for _, k := range r.log {
				sum += k.Cycles
			}
			if r.cycles >= sum {
				t.Errorf("the resumed run took %d cycles, its launches %d in sum: its streams did not overlap", r.cycles, sum)
			}
			t.Logf("resumed: %d cycles, launches %d in sum", r.cycles, sum)
		})
	}
}
