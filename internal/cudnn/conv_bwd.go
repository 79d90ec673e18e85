package cudnn

import (
	"fmt"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// ConvolutionBackwardData computes dx from dy and w.
func (h *Handle) ConvolutionBackwardData(algo ConvBwdDataAlgo, w uint64, fd FilterDesc, dy uint64, yd TensorDesc, cd ConvDesc, dx uint64, xd TensorDesc) error {
	h.ctx.SetAPITag("cudnnConvolutionBackwardData")
	if yd.C != fd.K {
		return fmt.Errorf("cudnn: dy has %d channels, filter has %d outputs", yd.C, fd.K)
	}
	switch algo {
	case BwdDataAlgo0:
		p := convParams(dy, w, dx, false, xd, fd, yd, cd)
		return h.launch2D("conv_bwd_data_algo0", xd.C*xd.H*xd.W, 128, xd.N, p)
	case BwdDataAlgo1:
		if err := h.zero(dx, xd.Count()); err != nil {
			return err
		}
		p := convParams(dy, w, dx, false, xd, fd, yd, cd)
		return h.launch2D("conv_bwd_data_algo1", fd.K*yd.H*yd.W, 128, xd.N, p)
	case BwdDataFFTTiling, BwdDataWinograd, BwdDataWinogradNonfused:
		return h.bwdDataAsForward(algo, w, fd, dy, yd, cd, dx, xd)
	}
	return ErrNotSupported{Reason: "unknown backward-data algorithm"}
}

// bwdDataAsForward expresses backward-data (stride 1) as a forward
// convolution of dy with the 180-degree-rotated, KC-transposed filter
// bank at pad' = R-1-pad, dispatched to the FFT-tiling or Winograd
// forward path.
func (h *Handle) bwdDataAsForward(algo ConvBwdDataAlgo, w uint64, fd FilterDesc, dy uint64, yd TensorDesc, cd ConvDesc, dx uint64, xd TensorDesc) error {
	if cd.Stride != 1 {
		return ErrNotSupported{Reason: algo.String() + " backward data requires stride 1"}
	}
	ws := h.scratch()
	defer ws.release()
	rot := ws.alloc(4 * fd.Count())
	if ws.err != nil {
		return ws.err
	}
	p := cudart.NewParams().Ptr(w).Ptr(rot).
		U32(uint32(fd.K)).U32(uint32(fd.C)).U32(uint32(fd.R)).U32(uint32(fd.S))
	if err := h.launch1D("rotate_filter_180", fd.Count(), 128, p); err != nil {
		return err
	}
	rfd := FilterDesc{K: fd.C, C: fd.K, R: fd.R, S: fd.S}
	rcd := ConvDesc{Pad: fd.R - 1 - cd.Pad, Stride: 1}
	var fwd ConvFwdAlgo
	switch algo {
	case BwdDataFFTTiling:
		fwd = FwdAlgoFFTTiling
	case BwdDataWinograd:
		fwd = FwdAlgoWinograd
	case BwdDataWinogradNonfused:
		fwd = FwdAlgoWinogradNonfused
	}
	got, err := h.ConvolutionForward(fwd, dy, yd, rot, rfd, rcd, dx)
	if err != nil {
		return err
	}
	if got.N != xd.N || got.H != xd.H || got.W != xd.W || got.C != xd.C {
		return fmt.Errorf("cudnn: backward-data shape mismatch: got %+v want %+v", got, xd)
	}
	return nil
}

// ConvolutionBackwardFilter computes dw from x and dy.
func (h *Handle) ConvolutionBackwardFilter(algo ConvBwdFilterAlgo, x uint64, xd TensorDesc, dy uint64, yd TensorDesc, cd ConvDesc, dw uint64, fd FilterDesc) error {
	h.ctx.SetAPITag("cudnnConvolutionBackwardFilter")
	switch algo {
	case BwdFilterAlgo0:
		p := convParams(x, dy, dw, true, xd, fd, yd, cd)
		return h.launch1D("conv_bwd_filter_algo0", fd.Count(), 64, p)
	case BwdFilterAlgo1:
		if err := h.zero(dw, fd.Count()); err != nil {
			return err
		}
		p := convParams(x, dy, dw, false, xd, fd, yd, cd)
		return h.launch2D("conv_bwd_filter_algo1", fd.K*yd.H*yd.W, 128, xd.N, p)
	case BwdFilterAlgo3:
		p := convParams(x, dy, dw, true, xd, fd, yd, cd)
		return h.launch("conv_bwd_filter_algo3", exec.Dim3{X: fd.Count()}, exec.Dim3{X: 256}, p)
	case BwdFilterFFT:
		return h.bwdFilterFFT(x, xd, dy, yd, cd, dw, fd, false)
	case BwdFilterFFTTiling:
		return h.bwdFilterFFT(x, xd, dy, yd, cd, dw, fd, true)
	case BwdFilterWinogradNonfused:
		if fd.R != 3 || fd.S != 3 || cd.Stride != 1 {
			return ErrNotSupported{Reason: "Winograd backward filter requires 3x3 stride 1"}
		}
		p := cudart.NewParams().Ptr(x).Ptr(dy).Ptr(dw).
			U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
			U32(uint32(fd.K)).U32(uint32(yd.H)).U32(uint32(yd.W)).
			U32(uint32(cd.Pad)).U32(uint32(xd.N))
		return h.launch("winograd_bwd_filter",
			exec.Dim3{X: fd.K * fd.C}, exec.Dim3{X: 64}, p)
	}
	return ErrNotSupported{Reason: "unknown backward-filter algorithm"}
}

// bwdFilterFFT computes dW = Σ_n corr(x[n,c], dy[n,k]) in the frequency
// domain: per image, extract frames/tiles of x (origin -pad) and dy
// (origin 0, zeroed beyond the valid window), FFT both, accumulate
// conj(DY)·X into dW spectra, and at the end inverse-transform and crop
// the R x R gradient.
func (h *Handle) bwdFilterFFT(x uint64, xd TensorDesc, dy uint64, yd TensorDesc, cd ConvDesc, dw uint64, fd FilterDesc, tiling bool) error {
	if cd.Stride != 1 {
		return ErrNotSupported{Reason: "FFT backward filter requires stride 1"}
	}
	f, err := fftFraming(tiling, max(xd.H, xd.W)+2*cd.Pad, fd.R, yd)
	if err != nil {
		return err
	}
	n, nt, nn := f.n, f.ntx*f.nty, f.n*f.n

	ws := h.scratch()
	defer ws.release()
	xTiles := ws.alloc(4 * xd.C * nt * nn)
	dyTiles := ws.alloc(4 * fd.K * nt * nn)
	xSpec := ws.alloc(8 * xd.C * nt * nn)
	dySpec := ws.alloc(8 * fd.K * nt * nn)
	dwSpec := ws.alloc(8 * fd.K * fd.C * nn)
	dwFull := ws.alloc(4 * fd.K * fd.C * nn)
	if ws.err != nil {
		return ws.err
	}
	if err := h.zero(dwSpec, 2*fd.K*fd.C*nn); err != nil {
		return err
	}
	for img := 0; img < xd.N; img++ {
		xOff := x + uint64(4*img*xd.C*xd.H*xd.W)
		if err := h.tileExtract(xOff, xTiles, xd.C, xd.H, xd.W, f, cd.Pad, n); err != nil {
			return err
		}
		// dy frames start at the origin and are zeroed beyond one step
		dyOff := dy + uint64(4*img*fd.K*yd.H*yd.W)
		if err := h.tileExtract(dyOff, dyTiles, fd.K, yd.H, yd.W, f, 0, f.step); err != nil {
			return err
		}
		if err := h.r2c(n, xd.C*nt, xTiles, xSpec); err != nil {
			return err
		}
		if err := h.r2c(n, fd.K*nt, dyTiles, dySpec); err != nil {
			return err
		}
		cg := cudart.NewParams().Ptr(xSpec).Ptr(dySpec).Ptr(dwSpec).
			U32(uint32(fd.C)).U32(uint32(fd.K)).U32(uint32(nn)).U32(uint32(nt))
		if err := h.launch1D("cgemm_bwd_filter", fd.K*fd.C*nn, 256, cg); err != nil {
			return err
		}
	}
	if err := h.c2r(n, fd.K*fd.C, dwSpec, dwFull); err != nil {
		return err
	}
	// crop offset 0: the filter gradient starts at the frame's origin
	cp := cudart.NewParams().Ptr(dwFull).Ptr(dw).
		U32(uint32(n)).U32(uint32(fd.R)).U32(uint32(fd.S)).U32(0)
	return h.launch2D("fft_crop", fd.R*fd.S, 64, fd.K*fd.C, cp)
}
