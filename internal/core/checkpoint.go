package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/timing"
)

// checkpointSamplePoint is where RunCheckpointSample stops: inside kernel
// 1 (the GEMM), CTAs 2 and 3 in flight, 40 instructions into each warp.
var checkpointSamplePoint = checkpoint.Point{KernelX: 1, CTAM: 2, CTAT: 1, InstrY: 40}

// CheckpointSampleResult is what the §III-F round trip saw.
type CheckpointSampleResult struct {
	Point     checkpoint.Point
	Kernel    string    // the kernel the checkpoint landed in
	InFlight  int       // CTAs saved mid-flight (Data1)
	BlobBytes int       // serialized Data1 + Data2
	Cycles    uint64    // modelled cycles of the resumed run
	Output    []float32 // the resumed run's result, equal to an uninterrupted run's
}

// RunCheckpointSample runs the paper's §III-F flow (Figs. 4-5) end to
// end: fast-forward the sample application functionally to a fixed point
// inside its GEMM, save Data1 (registers, SIMT stacks, shared memory) and
// Data2 (global memory), serialise and deserialise the state, then resume
// inside the kernel on a fresh context under the GTX 1050 performance
// model, stepped by `workers` host goroutines. The resumed output must
// equal, bit for bit, what an uninterrupted functional run computes.
func RunCheckpointSample(workers int) (*CheckpointSampleResult, error) {
	blob, err := captureCheckpointSample()
	if err != nil {
		return nil, err
	}
	state, err := checkpoint.Decode(blob)
	if err != nil {
		return nil, err
	}
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	out, err := resumeCheckpointSample(state, eng)
	if err != nil {
		return nil, fmt.Errorf("core: resumed run: %w", err)
	}

	want, err := RunCheckpointApp(nil)
	if err != nil {
		return nil, fmt.Errorf("core: uninterrupted run: %w", err)
	}
	if !slices.EqualFunc(out, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		return nil, fmt.Errorf("core: output resumed from the checkpoint differs from the uninterrupted run")
	}
	return &CheckpointSampleResult{
		Point: state.Point, Kernel: state.Kernel, InFlight: len(state.CTAs), BlobBytes: len(blob),
		Cycles: eng.Cycle(), Output: out,
	}, nil
}

// captureCheckpointSample fast-forwards the sample application
// functionally to checkpointSamplePoint and returns the encoded state.
func captureCheckpointSample() ([]byte, error) {
	ctx := cudart.NewContext(exec.BugSet{})
	capture := &checkpoint.CaptureRunner{Ctx: ctx, P: checkpointSamplePoint}
	ctx.SetRunner(capture)
	if _, _, err := checkpointApp(ctx); err != nil {
		return nil, fmt.Errorf("core: capture run: %w", err)
	}
	if capture.State == nil {
		return nil, fmt.Errorf("core: the application ended before kernel %d: no checkpoint captured", checkpointSamplePoint.KernelX)
	}
	return capture.State.Encode()
}

// resumeCheckpointSample restores state into a fresh context and replays
// the sample application from it on eng, returning the output.
func resumeCheckpointSample(state *checkpoint.State, eng *timing.Engine) ([]float32, error) {
	ctx := cudart.NewContext(exec.BugSet{})
	resume := &checkpoint.ResumeRunner{Ctx: ctx, State: state, Engine: eng}
	ctx.SetRunner(resume)
	resume.Restore()
	pc, n, err := checkpointApp(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.MemcpyF32DtoH(pc, n), nil
}

// RunCheckpointApp runs the sample application uninterrupted —
// functionally, or on eng's performance model when eng is non-nil — and
// returns its output.
func RunCheckpointApp(eng *timing.Engine) ([]float32, error) {
	ctx := cudart.NewContext(exec.BugSet{})
	if eng != nil {
		ctx.SetRunner(timing.Runner{E: eng})
	}
	pc, n, err := checkpointApp(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.MemcpyF32DtoH(pc, n), nil
}

// checkpointApp is the replayed application: relu -> tiled GEMM -> relu.
// It returns the output buffer and its length in floats.
func checkpointApp(ctx *cudart.Context) (uint64, int, error) {
	h, err := cudnn.Create(ctx)
	if err != nil {
		return 0, 0, err
	}
	const m, n, k = 64, 48, 32
	x := make([]float32, m*k)
	w := make([]float32, k*n)
	for i := range x {
		x[i] = float32(i%9)*0.5 - 2
	}
	for i := range w {
		w[i] = float32(i%5)*0.25 - 0.5
	}
	var ptrs [4]uint64 // x, w, relu(x), out — allocated in this order
	for i, floats := range []int{len(x), len(w), len(x), m * n} {
		if ptrs[i], err = ctx.Malloc(uint64(4 * floats)); err != nil {
			return 0, 0, err
		}
	}
	px, pw, pa, pc := ptrs[0], ptrs[1], ptrs[2], ptrs[3]
	ctx.MemcpyF32HtoD(px, x)
	ctx.MemcpyF32HtoD(pw, w)
	if err := h.ActivationForward(px, pa, len(x)); err != nil {
		return 0, 0, err
	}
	if err := h.Gemm(pa, pw, pc, m, n, k, 1, 0); err != nil {
		return 0, 0, err
	}
	return pc, m * n, h.ActivationForward(pc, pc, m*n)
}
