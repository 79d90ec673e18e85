package debug_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/debug"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// convWorkload reproduces the paper's failing scenario: an FFT-algorithm
// cudnnConvolutionForward call (a multi-kernel library call).
func convWorkload(ctx *cudart.Context) error {
	h, err := cudnn.Create(ctx)
	if err != nil {
		return err
	}
	xd := cudnn.TensorDesc{N: 1, C: 2, H: 12, W: 12}
	fd := cudnn.FilterDesc{K: 3, C: 2, R: 5, S: 5}
	cd := cudnn.ConvDesc{Pad: 0, Stride: 1}
	x := make([]float32, xd.Count())
	for i := range x {
		x[i] = float32(i%17)*0.125 - 1
	}
	w := make([]float32, fd.Count())
	for i := range w {
		w[i] = float32(i%11)*0.25 - 1.25
	}
	px, err := ctx.Malloc(uint64(4 * len(x)))
	if err != nil {
		return err
	}
	ctx.MemcpyF32HtoD(px, x)
	pw, err := ctx.Malloc(uint64(4 * len(w)))
	if err != nil {
		return err
	}
	ctx.MemcpyF32HtoD(pw, w)
	py, err := ctx.Malloc(uint64(4 * 3 * 8 * 8))
	if err != nil {
		return err
	}
	_, err = h.ConvolutionForward(cudnn.FwdAlgoFFT, px, xd, pw, fd, cd, py)
	return err
}

// regressionWorkload is a known-good mini suite that does NOT execute
// rem, brev or tex — the differential-coverage baseline.
func regressionWorkload(ctx *cudart.Context) error {
	h, err := cudnn.Create(ctx)
	if err != nil {
		return err
	}
	px, err := ctx.Malloc(4 * 256)
	if err != nil {
		return err
	}
	py, err := ctx.Malloc(4 * 256)
	if err != nil {
		return err
	}
	if err := h.ActivationForward(px, py, 256); err != nil {
		return err
	}
	return h.Gemm(px, py, px, 8, 8, 8, 1, 0)
}

// TestDebugFindsRemBug is the paper's §III-D episode end to end: a faulty
// rem implementation is injected; the tool must (1) flag rem as a
// suspicious differential-coverage path, (2) bisect to the first kernel
// inside cudnnConvolutionForward whose outputs diverge, and (3) identify
// a rem instruction as the first incorrectly executing instruction.
func TestDebugFindsRemBug(t *testing.T) {
	tool := &debug.Tool{
		Workload:   convWorkload,
		Regression: regressionWorkload,
		Bugs:       exec.BugSet{BreakOp: ptx.OpRem},
	}
	rep, err := tool.Run()
	if err != nil {
		t.Fatalf("tool: %v", err)
	}
	// step 1: rem must be among the suspicious paths
	foundRem := false
	for _, k := range rep.SuspiciousPaths {
		if k.Op == ptx.OpRem {
			foundRem = true
		}
	}
	if !foundRem {
		t.Errorf("differential coverage did not flag rem; paths: %v", rep.SuspiciousPaths)
	}
	// step 2: the bad launch must be inside the convolution API call
	if rep.BadLaunch < 0 {
		t.Fatal("no bad launch found")
	}
	if rep.BadAPI != "cudnnConvolutionForward" {
		t.Errorf("bad API = %q, want cudnnConvolutionForward", rep.BadAPI)
	}
	// step 3: the first faulty instruction must be a rem
	if rep.BadPC < 0 {
		t.Fatal("no faulty instruction found")
	}
	if !strings.HasPrefix(rep.BadInstr, "rem") {
		t.Errorf("first faulty instruction = %q (kernel %s pc %d), want a rem",
			rep.BadInstr, rep.BadKernel, rep.BadPC)
	}
	if rep.GoldenVal == rep.BuggyVal {
		t.Error("reported divergent values are equal")
	}
	t.Logf("debug flow: API=%s launch=%d kernel=%s pc=%d instr=%q golden=%#x buggy=%#x",
		rep.BadAPI, rep.BadLaunch, rep.BadKernel, rep.BadPC, rep.BadInstr, rep.GoldenVal, rep.BuggyVal)
}

// TestDebugNoBugNoFinding: with no injected bug the tool reports nothing.
func TestDebugNoBugNoFinding(t *testing.T) {
	tool := &debug.Tool{Workload: convWorkload, Bugs: exec.BugSet{}}
	rep, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadLaunch >= 0 {
		t.Fatalf("clean run flagged launch %d (%s)", rep.BadLaunch, rep.BadKernel)
	}
}

// TestDebugRegressionFailureSkipsStep1: a regression suite that fails on
// the suspect machine (the injected bug reaches it too) costs step 1 only;
// steps 2 and 3 still localise the fault. A negative log size is an error,
// not a panic in make().
func TestDebugRegressionFailureSkipsStep1(t *testing.T) {
	broken := errors.New("regression suite hit the bug")
	tool := &debug.Tool{
		Workload:   convWorkload,
		Regression: func(*cudart.Context) error { return broken },
		Bugs:       exec.BugSet{BreakOp: ptx.OpRem},
	}
	rep, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.RegressionErr, broken) || len(rep.SuspiciousPaths) != 0 {
		t.Errorf("RegressionErr = %v, %d suspicious paths; want the suite's error and none", rep.RegressionErr, len(rep.SuspiciousPaths))
	}
	if !strings.HasPrefix(rep.BadInstr, "rem") {
		t.Errorf("first faulty instruction = %q, want a rem", rep.BadInstr)
	}

	tool.EntriesPerThread = -1
	if _, err := tool.Run(); err == nil || !strings.Contains(err.Error(), "EntriesPerThread") {
		t.Errorf("EntriesPerThread -1: Run returned %v, want an error naming the field", err)
	}
}

// TestDebugLocalisesArbitraryOpcodeBug is the property the methodology
// promises: for an arbitrary faulty opcode implementation, the tool finds
// a first-faulty instruction with exactly that opcode. The candidate set
// excludes the opcodes the instrumentation pass itself relies on
// (mov/mad/mul/add/setp/st/cvta): like the paper's tool, the logging code
// runs on the same buggy simulator, so a bug in those would corrupt the
// log bookkeeping itself.
func TestDebugLocalisesArbitraryOpcodeBug(t *testing.T) {
	ops := []ptx.Op{ptx.OpRem, ptx.OpDiv, ptx.OpBrev, ptx.OpShr, ptx.OpFma, ptx.OpSelp}
	f := func(pick uint8) bool {
		op := ops[int(pick)%len(ops)]
		tool := &debug.Tool{Workload: convWorkload, Bugs: exec.BugSet{BreakOp: op}}
		rep, err := tool.Run()
		if err != nil {
			t.Logf("op %v: %v", op, err)
			return false
		}
		if rep.BadLaunch < 0 || rep.BadPC < 0 {
			t.Logf("op %v: not localised: %+v", op, rep)
			return false
		}
		return strings.HasPrefix(rep.BadInstr, op.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// TestInstrumentedKernelRoundTrip instruments every kernel of the library
// and re-parses the result: the instrumented kernel must be the original
// plus logging and nothing else. Apart from the instructions that touch
// the %dbg registers, it holds each original instruction's Raw text in
// order, then the closing ret; every label lands on its instruction, and
// the log pointer follows the original parameters.
func TestInstrumentedKernelRoundTrip(t *testing.T) {
	mods, err := kernels.ParsedModules()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		for _, name := range m.KernelNames() {
			k := m.Kernels[name]
			im, err := ptx.Parse(debug.InstrumentKernel(k, 64))
			if err != nil {
				t.Fatalf("%s: instrumented PTX does not parse: %v", name, err)
			}
			ik := im.Kernels[name]
			if ik == nil {
				t.Fatalf("%s: instrumented kernel missing", name)
			}
			if want := (k.ParamBytes()+7)&^7 + 8; ik.ParamBytes() != want {
				t.Errorf("%s: instrumented params = %d bytes, want %d", name, ik.ParamBytes(), want)
			}
			// at[pc] is where original pc sits in the instrumented kernel;
			// at[len(k.Instrs)] is the closing ret.
			var at []int
			for ipc := range ik.Instrs {
				if !strings.Contains(ik.Instrs[ipc].Raw, "%dbg") {
					at = append(at, ipc)
				}
			}
			if len(at) != len(k.Instrs)+1 || ik.Instrs[at[len(k.Instrs)]].Raw != "ret;" {
				t.Errorf("%s: %d uninstrumented instructions, want the original %d and a closing ret", name, len(at), len(k.Instrs))
				continue
			}
			for pc := range k.Instrs {
				if got, want := ik.Instrs[at[pc]].Raw, k.Instrs[pc].Raw; got != want {
					t.Errorf("%s pc %d: instrumented text %q, want %q", name, pc, got, want)
				}
			}
			for l, pc := range k.Labels {
				if ik.Labels[l] != at[pc] {
					t.Errorf("%s: label %s at %d, want %d", name, l, ik.Labels[l], at[pc])
				}
			}
		}
	}
}

// TestInstrumentedKernelKeepsParamOffsets instruments a kernel with an
// aligned array parameter: every original parameter must keep its byte
// offset, and the log pointer must land at the next 8-aligned offset
// after them, where the replay appends it.
func TestInstrumentedKernelKeepsParamOffsets(t *testing.T) {
	const src = `.version 6.0
.target sm_61
.address_size 64

.visible .entry arr(
	.param .align 8 .b8 s[16],
	.param .u64 p
)
{
	.reg .u64 %rd1;
	ld.param.u64 %rd1, [p];
	ret;
}
`
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels["arr"]
	im, err := ptx.Parse(debug.InstrumentKernel(k, 4))
	if err != nil {
		t.Fatalf("instrumented PTX does not parse: %v", err)
	}
	ik := im.Kernels["arr"]
	if len(ik.Params) != len(k.Params)+1 {
		t.Fatalf("instrumented kernel has %d parameters, want %d", len(ik.Params), len(k.Params)+1)
	}
	for i, p := range k.Params {
		if got := ik.Params[i]; got.Offset != p.Offset || got.Size != p.Size {
			t.Errorf("parameter %s at offset %d size %d, want offset %d size %d", p.Name, got.Offset, got.Size, p.Offset, p.Size)
		}
	}
	if got, want := ik.Params[len(k.Params)].Offset, (k.ParamBytes()+7)&^7; got != want {
		t.Errorf("log pointer at offset %d, want %d", got, want)
	}
}

// TestInstrumentedKernelDeterministic instruments a kernel with two labels
// at one PC twenty times: the text must be the same every time, its
// labels at each PC in name order.
func TestInstrumentedKernelDeterministic(t *testing.T) {
	const src = `.version 6.0
.target sm_61
.address_size 64

.visible .entry twolabels(
	.param .u64 p
)
{
	.reg .pred %p1;
	.reg .u32 %r<2>;
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra TAIL;
LOOP:
TAIL:
	add.u32 %r1, %r1, 1;
	ret;
}
`
	m, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := m.Kernels["twolabels"]
	first := debug.InstrumentKernel(k, 4)
	if !strings.Contains(first, "LOOP:\nTAIL:\n") {
		t.Fatalf("labels at one PC not in name order:\n%s", first)
	}
	for i := 1; i < 20; i++ {
		if got := debug.InstrumentKernel(k, 4); got != first {
			t.Fatalf("instrumentation %d differs from the first:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}
