package core

import (
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/session"
	"repro/internal/timing"
)

// stridedSaxpyPTX is the memory-bound probe kernel: y[i*stride] +=
// x[i*stride]. With stride 1 it is a perfectly coalesced streaming sweep
// (one 128B sector per warp per array); with stride = RowBytes*NumBanks/4
// floats every lane lands in a different row of the *same* DRAM bank of
// the *same* partition — the paper's §V-B bank-camping pathology.
const stridedSaxpyPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry strided_saxpy(
	.param .u64 pX,
	.param .u64 pY,
	.param .u32 pStride,
	.param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<4>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<6>;

	ld.param.u64 %rd1, [pX];
	ld.param.u64 %rd2, [pY];
	ld.param.u32 %r1, [pStride];
	ld.param.u32 %r2, [pN];
	mov.u32 %r3, %ctaid.x;
	mov.u32 %r4, %ntid.x;
	mov.u32 %r5, %tid.x;
	mad.lo.s32 %r6, %r3, %r4, %r5;
	setp.ge.u32 %p1, %r6, %r2;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	mul.lo.s32 %r7, %r6, %r1;
	mul.wide.u32 %rd3, %r7, 4;
	add.s64 %rd4, %rd1, %rd3;
	add.s64 %rd5, %rd2, %rd3;
	ld.global.f32 %f1, [%rd4];
	ld.global.f32 %f2, [%rd5];
	add.f32 %f3, %f1, %f2;
	st.global.f32 [%rd5], %f3;
DONE:
	ret;
}
`

// StridedRunResult is one strided_saxpy run on a fresh engine (closed;
// its statistics and partitions stay readable).
type StridedRunResult struct {
	Engine *timing.Engine
	Kernel cudart.KernelStats
}

// CampingStrideFloats returns the float32 stride that makes consecutive
// threads camp on one DRAM bank of one partition under cfg: every access
// lands RowBytes*NumBanks bytes apart, i.e. the same bank, a new row each
// time (and the same L2 partition, since the stride is a multiple of the
// L2 line size times the partition count).
func CampingStrideFloats(cfg timing.Config) int {
	return cfg.DRAM.RowBytes * cfg.DRAM.NumBanks / 4
}

// RunStridedSaxpy launches strided_saxpy once on a fresh session: `ctas`
// blocks of `threads` threads, each thread touching x[i*stride] and
// y[i*stride]. Occupancy (ctas*threads in flight) is the load knob;
// stride is the locality knob.
func RunStridedSaxpy(gpu GPU, workers, ctas, threads, stride int) (*StridedRunResult, error) {
	cfg, err := gpu.TimingConfig()
	if err != nil {
		return nil, err
	}
	s, err := session.New(cfg, workers)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ctx := s.Dev.Ctx
	if _, err := ctx.RegisterModule(stridedSaxpyPTX); err != nil {
		return nil, err
	}
	n := ctas * threads
	floats := n * stride
	init := make([]float32, floats)
	for i := range init {
		init[i] = float32(i%17) * 0.25
	}
	px, err := ctx.Malloc(uint64(4 * floats))
	if err != nil {
		return nil, err
	}
	ctx.MemcpyF32HtoD(px, init)
	py, err := ctx.Malloc(uint64(4 * floats))
	if err != nil {
		return nil, err
	}
	ctx.MemcpyF32HtoD(py, init)
	p := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(stride)).U32(uint32(n))
	st, err := ctx.Launch("strided_saxpy", exec.Dim3{X: ctas}, exec.Dim3{X: threads}, p, 0)
	if err != nil {
		return nil, err
	}
	return &StridedRunResult{Engine: s.Eng, Kernel: st}, nil
}
