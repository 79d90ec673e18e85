package core

import (
	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/debug"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// RunDebugSample runs the paper's §III-D debugging episode (Figs. 2-3):
// op's implementation is broken in the suspect simulator, and debug.Tool
// localises it by differential coverage against a regression suite,
// API-call/kernel bisection and instruction-level comparison against the
// golden executor. entries bounds the per-thread instruction log (0 =
// the tool's default).
func RunDebugSample(op ptx.Op, entries int) (*debug.Report, error) {
	tool := &debug.Tool{
		Workload:         debugWorkload,
		Regression:       debugRegression,
		Bugs:             exec.BugSet{BreakOp: op},
		EntriesPerThread: entries,
	}
	return tool.Run()
}

// debugWorkload is the failing application: one cudnnConvolutionForward
// with the FFT algorithm, a multi-kernel library call like the MNIST
// conv in which the paper found GPGPU-Sim's rem bug.
func debugWorkload(ctx *cudart.Context) error {
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
	var ptrs [3]uint64 // x, w, y — allocated in this order
	for i, floats := range []int{len(x), len(w), fd.K * cd.OutDim(xd.H, fd.R) * cd.OutDim(xd.W, fd.S)} {
		if ptrs[i], err = ctx.Malloc(uint64(4 * floats)); err != nil {
			return err
		}
	}
	px, pw, py := ptrs[0], ptrs[1], ptrs[2]
	ctx.MemcpyF32HtoD(px, x)
	ctx.MemcpyF32HtoD(pw, w)
	_, err = h.ConvolutionForward(cudnn.FwdAlgoFFT, px, xd, pw, fd, cd, py)
	return err
}

// debugRegression is the known-good suite of step 1: a relu and a small
// GEMM, which execute none of rem, brev or the FFT kernels' other
// instructions.
func debugRegression(ctx *cudart.Context) error {
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
