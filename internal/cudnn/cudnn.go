// Package cudnn is the cuDNN-analog deep-learning primitive library of
// this reproduction. Like the real library, it is a host-side layer that
// launches precompiled PTX kernels (internal/kernels) through the CUDA
// runtime (internal/cudart): every high-level API call typically launches
// several kernels, which is exactly the structure the paper's debugging
// methodology (§III-D) has to cope with.
//
// The convolution paths take device workspace from one per-call `scratch`
// value: `scratch.alloc` in call order, the first failure remembered and
// checked once, `scratch.release` newest first — the allocation order
// `torch.TestLaunchChainPinned`'s addresses depend on. A failed call
// gives back every buffer it held (`TestScratchReleasedOnFailure`).
//
// Each launch sequence is written out once:
//   - The frequency-domain paths are one pipeline with two framings.
//     `fftFraming` sizes the frames: one n x n frame per plane for plain
//     FFT, or the grid of overlapping 32x32 tiles for FFT tiling. Each
//     image goes through a framing stage (`Handle.pad2d` for the plain
//     forward, `Handle.tileExtract` otherwise), `Handle.r2c`, a CGEMM,
//     `Handle.c2r` and an unframing stage. The forward
//     (`Handle.convFwdFFT`) and the backward filter (`Handle.bwdFilterFFT`)
//     take the framing as an argument.
//   - The direct convolutions (implicit GEMM forward, backward-data
//     algorithms 0 and 1, backward-filter algorithms 0, 1 and 3) take
//     their parameters from `convParams`, the host mirror of the kernels'
//     convShape: three tensors, N for the kernels that loop over images,
//     then C, H, W, K, R, S, OH, OW, stride, pad. A new direct-convolution
//     kernel's parameters go through it too.
//   - The row kernels that skip an empty matrix (layer norm forward and
//     backward, softmax backward, the fused softmax cross-entropy
//     backward, causal softmax) launch through `Handle.launchRows`: one
//     32-thread CTA per row, nothing when rows or cols is 0.
//
// `torch.TestLaunchChainPinned` pins every (direction, algorithm) pair of
// the §V-A sweep at three shapes: kernel, grid, block and parameter bytes
// of each launch, in order.
package cudnn

import (
	"fmt"
	"slices"

	"repro/internal/cudart"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/kernels"
)

// TensorDesc describes an NCHW float32 tensor.
type TensorDesc struct{ N, C, H, W int }

// Count returns the element count.
func (d TensorDesc) Count() int { return d.N * d.C * d.H * d.W }

// FilterDesc describes a KCRS filter bank (square windows, R == S).
type FilterDesc struct{ K, C, R, S int }

// Count returns the element count.
func (d FilterDesc) Count() int { return d.K * d.C * d.R * d.S }

// ConvDesc describes a square convolution.
type ConvDesc struct {
	Pad    int
	Stride int
}

// OutDim returns the output spatial edge for input edge h, filter edge r.
func (cd ConvDesc) OutDim(h, r int) int { return (h+2*cd.Pad-r)/cd.Stride + 1 }

// PoolDesc describes square max pooling.
type PoolDesc struct {
	Window int
	Stride int
}

// LRNDesc describes cross-channel local response normalisation.
type LRNDesc struct {
	N     int // window
	K     float32
	Alpha float32
	Beta  float32
}

// Conv algorithm enums mirror the cuDNN names the paper sweeps in §V-A.
type (
	// ConvFwdAlgo selects the forward convolution algorithm.
	ConvFwdAlgo int
	// ConvBwdDataAlgo selects the backward-data algorithm.
	ConvBwdDataAlgo int
	// ConvBwdFilterAlgo selects the backward-filter algorithm.
	ConvBwdFilterAlgo int
)

// Forward algorithms (paper §V-A list).
const (
	FwdAlgoImplicitGemm ConvFwdAlgo = iota
	FwdAlgoGemm
	FwdAlgoFFT
	FwdAlgoFFTTiling
	FwdAlgoWinograd
	FwdAlgoWinogradNonfused
)

// Backward-data algorithms.
const (
	BwdDataAlgo0 ConvBwdDataAlgo = iota
	BwdDataAlgo1
	BwdDataFFTTiling
	BwdDataWinograd
	BwdDataWinogradNonfused
)

// Backward-filter algorithms.
const (
	BwdFilterAlgo0 ConvBwdFilterAlgo = iota
	BwdFilterAlgo1
	BwdFilterAlgo3
	BwdFilterFFT
	BwdFilterFFTTiling
	BwdFilterWinogradNonfused
)

func (a ConvFwdAlgo) String() string {
	return [...]string{"implicit_gemm", "gemm", "fft", "fft_tiling", "winograd", "winograd_nonfused"}[a]
}

func (a ConvBwdDataAlgo) String() string {
	return [...]string{"algo0", "algo1", "fft_tiling", "winograd", "winograd_nonfused"}[a]
}

func (a ConvBwdFilterAlgo) String() string {
	return [...]string{"algo0", "algo1", "algo3", "fft", "fft_tiling", "winograd_nonfused"}[a]
}

// ErrNotSupported mirrors CUDNN_STATUS_NOT_SUPPORTED.
type ErrNotSupported struct{ Reason string }

func (e ErrNotSupported) Error() string { return "cudnn: not supported: " + e.Reason }

// Handle is a cuDNN handle bound to a runtime context. Creating a handle
// registers the library's PTX modules — the analog of statically linking
// libcudnn into the application (§III-A fix 1), with each embedded PTX
// translation unit parsed separately (fix 2).
type Handle struct {
	ctx    *cudart.Context
	stream cudart.Stream
}

// Create registers the kernel library with the context and returns a
// handle.
func Create(ctx *cudart.Context) (*Handle, error) {
	mods, err := kernels.ParsedModules()
	if err != nil {
		return nil, fmt.Errorf("cudnn: %w", err)
	}
	for _, m := range mods {
		ctx.RegisterParsed(m)
	}
	return &Handle{ctx: ctx}, nil
}

// SetStream routes every subsequent library launch onto the given CUDA
// stream — the cudnnSetStream analog. With a timing runner installed,
// launches on a non-default stream queue in the detailed model and
// overlap with work on other streams; the zero value keeps the legacy
// device-synchronizing default stream.
func (h *Handle) SetStream(s cudart.Stream) { h.stream = s }

// launch launches a kernel on the handle's stream with an explicit grid.
func (h *Handle) launch(name string, grid, block exec.Dim3, p *cudart.Params) error {
	_, err := h.ctx.LaunchOnStream(h.stream, name, grid, block, p, 0)
	return err
}

// launch1D launches a kernel over n elements with the given block size.
func (h *Handle) launch1D(name string, n, block int, p *cudart.Params) error {
	if n == 0 {
		return nil
	}
	return h.launch(name, exec.Dim3{X: (n + block - 1) / block}, exec.Dim3{X: block}, p)
}

// launch2D launches with an explicit grid.y (plane/image dimension).
func (h *Handle) launch2D(name string, n, block, gy int, p *cudart.Params) error {
	if n == 0 || gy == 0 {
		return nil
	}
	return h.launch(name, exec.Dim3{X: (n + block - 1) / block, Y: gy}, exec.Dim3{X: block}, p)
}

// launchRows launches one 32-thread CTA per row of a [rows, cols]
// matrix, and nothing when the matrix is empty.
func (h *Handle) launchRows(name string, rows, cols int, p *cudart.Params) error {
	if rows == 0 || cols == 0 {
		return nil
	}
	return h.launch(name, exec.Dim3{X: rows}, exec.Dim3{X: 32}, p)
}

// zero fills a float32 device range using the fill_zero kernel.
func (h *Handle) zero(addr uint64, n int) error {
	return h.launch1D("fill_zero", n, 256, cudart.NewParams().Ptr(addr).U32(uint32(n)))
}

// scratch is one call's device workspace. alloc hands out buffers in call
// order and remembers the first failure — once err is set it allocates
// nothing more and returns 0, so a call checks err once, after its last
// alloc — and release frees them newest first. Allocation and free order
// are what the first-fit allocator turns into addresses, and addresses
// are in every launch's parameter bytes.
type scratch struct {
	ctx   *cudart.Context
	addrs []uint64
	err   error
}

func (h *Handle) scratch() *scratch { return &scratch{ctx: h.ctx} }

func (s *scratch) alloc(bytes int) (addr uint64) {
	if s.err == nil {
		if addr, s.err = s.ctx.Malloc(uint64(bytes)); s.err == nil {
			s.addrs = append(s.addrs, addr)
		}
	}
	return addr
}

func (s *scratch) release() {
	for _, addr := range slices.Backward(s.addrs) {
		_ = s.ctx.Free(addr) // addrs holds only what Malloc returned and nothing else frees
	}
}

// AddTensor adds a per-channel bias to an NCHW tensor (cudnnAddTensor).
func (h *Handle) AddTensor(bias uint64, y uint64, yd TensorDesc) error {
	h.ctx.SetAPITag("cudnnAddTensor")
	n := yd.Count()
	p := cudart.NewParams().Ptr(y).Ptr(bias).U32(uint32(n)).U32(uint32(yd.C)).U32(uint32(yd.H * yd.W))
	return h.launch1D("add_bias", n, 256, p)
}

// ActivationForward applies ReLU (cudnnActivationForward).
func (h *Handle) ActivationForward(x, y uint64, n int) error {
	h.ctx.SetAPITag("cudnnActivationForward")
	return h.launch1D("relu_forward", n, 256, cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(n)))
}

// PoolingForward runs max pooling; idx receives argmax indices (u32),
// sized like the output.
func (h *Handle) PoolingForward(pd PoolDesc, x uint64, xd TensorDesc, y, idx uint64) (TensorDesc, error) {
	h.ctx.SetAPITag("cudnnPoolingForward")
	oh := (xd.H-pd.Window)/pd.Stride + 1
	ow := (xd.W-pd.Window)/pd.Stride + 1
	yd := TensorDesc{N: xd.N, C: xd.C, H: oh, W: ow}
	per := yd.C * yd.H * yd.W
	p := cudart.NewParams().Ptr(x).Ptr(y).Ptr(idx).
		U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
		U32(uint32(pd.Window)).U32(uint32(pd.Stride)).
		U32(uint32(oh)).U32(uint32(ow))
	return yd, h.launch2D("maxpool_forward", per, 256, xd.N, p)
}

// LRNCrossChannelForward runs the texture-based LRN kernel per image. The
// input is rebound to the lrn_tex texture reference for every image —
// this is the rebinding pattern whose handling the paper fixed (§III-C).
func (h *Handle) LRNCrossChannelForward(ld LRNDesc, x uint64, xd TensorDesc, y uint64) error {
	h.ctx.SetAPITag("cudnnLRNCrossChannelForward")
	hw := xd.H * xd.W
	per := xd.C * hw
	ref, err := h.ctx.TexRefByName(kernels.LRNTexName)
	if err != nil {
		return err
	}
	for n := 0; n < xd.N; n++ {
		arr := device.NewCudaArray(per, 1, 1)
		h.ctx.MemcpyToArrayFromDevice(arr, x+uint64(4*n*per), per)
		if err := h.ctx.BindTextureToArray(ref, arr); err != nil {
			return err
		}
		p := cudart.NewParams().Ptr(y + uint64(4*n*per)).
			U32(uint32(xd.C)).U32(uint32(hw)).U32(uint32(ld.N)).
			F32(ld.K).F32(ld.Alpha).F32(ld.Beta)
		if err := h.launch1D("lrn_forward", per, 256, p); err != nil {
			return err
		}
	}
	return nil
}

// SoftmaxForward computes row-wise softmax (rows = n, cols = c).
func (h *Handle) SoftmaxForward(x, y uint64, rows, cols int) error {
	h.ctx.SetAPITag("cudnnSoftmaxForward")
	return h.launch("softmax_forward", exec.Dim3{X: rows}, exec.Dim3{X: 32},
		cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(cols)))
}

// GemvT computes y = alpha Aᵀx + beta y (the GEMV2T FC-layer kernel).
func (h *Handle) GemvT(a, x, y uint64, rows, cols int, alpha, beta float32) error {
	h.ctx.SetAPITag("cublasSgemv")
	return h.launch1D("gemv2t", cols, 128,
		cudart.NewParams().Ptr(a).Ptr(x).Ptr(y).
			U32(uint32(rows)).U32(uint32(cols)).F32(alpha).F32(beta))
}

// sgemm launches one of the tiled SGEMM kernels (sgemm_tiled,
// sgemm_nt_batched, sgemm_tn_batched — same parameter block, same launch
// shape) for C[m,n], reduction length k and `batch` grid.z slices at the
// given element strides.
func (h *Handle) sgemm(kernel string, a, bm, cm uint64, m, n, k, strideA, strideB, strideC, batch int, alpha, beta float32) error {
	p := cudart.NewParams().Ptr(a).Ptr(bm).Ptr(cm).
		U32(uint32(m)).U32(uint32(n)).U32(uint32(k)).
		U32(uint32(strideA)).U32(uint32(strideB)).U32(uint32(strideC)).
		F32(alpha).F32(beta)
	g := exec.Dim3{X: (n + 15) / 16, Y: (m + 15) / 16, Z: batch}
	return h.launch(kernel, g, exec.Dim3{X: 16, Y: 16}, p)
}

// Gemm computes C = alpha A B + beta C via the tiled SGEMM kernel.
func (h *Handle) Gemm(a, bm, cm uint64, m, n, k int, alpha, beta float32) error {
	h.ctx.SetAPITag("cublasSgemm")
	return h.sgemm("sgemm_tiled", a, bm, cm, m, n, k, 0, 0, 0, 1, alpha, beta)
}

// SGDUpdate applies w -= lr*g.
func (h *Handle) SGDUpdate(w, g uint64, n int, lr float32) error {
	h.ctx.SetAPITag("sgdUpdate")
	return h.launch1D("sgd_update", n, 256,
		cudart.NewParams().Ptr(w).Ptr(g).U32(uint32(n)).F32(lr))
}
