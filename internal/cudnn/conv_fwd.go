package cudnn

import (
	"cmp"
	"fmt"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// pickFFTSize returns the smallest supported FFT tile edge >= need.
func pickFFTSize(need int) (int, error) {
	switch {
	case need <= 16:
		return 16, nil
	case need <= 32:
		return 32, nil
	}
	return 0, ErrNotSupported{Reason: fmt.Sprintf("FFT frame %d exceeds 32x32 (use FFT tiling)", need)}
}

func fftKernelNames(n int) (r2c, c2r string) {
	if n == 16 {
		return "fft2d_r2c_16x16", "fft2d_c2r_16x16"
	}
	return "fft2d_r2c_32x32", "fft2d_c2r_32x32"
}

// ConvolutionForward computes y = conv(x, w) with the selected algorithm.
// Shapes: x is xd (NCHW), w is fd (KCRS), y is the returned descriptor.
func (h *Handle) ConvolutionForward(algo ConvFwdAlgo, x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64) (TensorDesc, error) {
	h.ctx.SetAPITag("cudnnConvolutionForward")
	if xd.C != fd.C {
		return TensorDesc{}, fmt.Errorf("cudnn: channel mismatch: x has %d, filter has %d", xd.C, fd.C)
	}
	oh := cd.OutDim(xd.H, fd.R)
	ow := cd.OutDim(xd.W, fd.S)
	yd := TensorDesc{N: xd.N, C: fd.K, H: oh, W: ow}
	var err error
	switch algo {
	case FwdAlgoImplicitGemm:
		err = h.convFwdImplicitGemm(x, xd, w, fd, cd, y, yd)
	case FwdAlgoGemm:
		err = h.convFwdGemm(x, xd, w, fd, cd, y, yd)
	case FwdAlgoFFT:
		err = h.convFwdFFT(x, xd, w, fd, cd, y, yd)
	case FwdAlgoFFTTiling:
		err = h.convFwdFFTTiling(x, xd, w, fd, cd, y, yd)
	case FwdAlgoWinograd:
		err = h.convFwdWinogradFused(x, xd, w, fd, cd, y, yd)
	case FwdAlgoWinogradNonfused:
		err = h.convFwdWinogradNonfused(x, xd, w, fd, cd, y, yd)
	default:
		err = ErrNotSupported{Reason: "unknown forward algorithm"}
	}
	return yd, err
}

func (h *Handle) convFwdImplicitGemm(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	per := fd.K * yd.H * yd.W
	p := cudart.NewParams().Ptr(x).Ptr(w).Ptr(y).
		U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
		U32(uint32(fd.K)).U32(uint32(fd.R)).U32(uint32(fd.S)).
		U32(uint32(yd.H)).U32(uint32(yd.W)).
		U32(uint32(cd.Stride)).U32(uint32(cd.Pad))
	return h.launch2D("implicit_gemm_conv_fwd", per, 128, xd.N, p)
}

// convFwdGemm stages through im2col then a single SGEMM per image:
// y[n] (K x OHOW) = W (K x CRS) * col (CRS x OHOW).
func (h *Handle) convFwdGemm(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	crs := fd.C * fd.R * fd.S
	ohw := yd.H * yd.W
	ws := h.scratch()
	defer ws.release()
	col := ws.alloc(4 * crs * ohw)
	if ws.err != nil {
		return ws.err
	}
	for n := 0; n < xd.N; n++ {
		xOff := x + uint64(4*n*xd.C*xd.H*xd.W)
		p := cudart.NewParams().Ptr(xOff).Ptr(col).
			U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
			U32(uint32(fd.R)).U32(uint32(fd.S)).
			U32(uint32(yd.H)).U32(uint32(yd.W)).
			U32(uint32(cd.Stride)).U32(uint32(cd.Pad))
		if err := h.launch1D("im2col", crs*ohw, 256, p); err != nil {
			return err
		}
		yOff := y + uint64(4*n*fd.K*ohw)
		if err := h.sgemm("sgemm_tiled", w, col, yOff, fd.K, ohw, crs, 0, 0, 0, 1, 1, 0); err != nil {
			return err
		}
	}
	return nil
}

// filterSpectra pads the KCRS filter bank into n x n frames and runs the
// forward FFT, returning the spectra buffer [(K*C) planes][n*n] complex.
func (h *Handle) filterSpectra(ws *scratch, w uint64, fd FilterDesc, n int) (uint64, error) {
	planes := fd.K * fd.C
	// the padded frames are dead once transformed: they go back before the
	// caller allocates anything, the spectra live in the caller's scratch
	tmp := h.scratch()
	defer tmp.release()
	pad := tmp.alloc(4 * planes * n * n)
	spec := ws.alloc(8 * planes * n * n)
	if err := cmp.Or(tmp.err, ws.err); err != nil {
		return 0, err
	}
	p := cudart.NewParams().Ptr(w).Ptr(pad).
		U32(uint32(fd.R)).U32(uint32(fd.S)).U32(uint32(n)).U32(uint32(n)).
		U32(0).U32(0)
	if err := h.launch2D("pad2d", n*n, 256, planes, p); err != nil {
		return 0, err
	}
	r2c, _ := fftKernelNames(n)
	return spec, h.launch(r2c, exec.Dim3{X: planes}, exec.Dim3{X: n}, cudart.NewParams().Ptr(pad).Ptr(spec))
}

// convFwdFFT is the plain FFT algorithm: whole-image frames. This is the
// path MNIST's first convolutions take (28x28 + 5x5 -> 32x32 frames,
// 12x12 + 5x5 -> 16x16 frames), producing the fft2d_r2c_32x32 /
// fft2d_r2c_16x16 / CGEMM / fft2d_c2r kernels of Fig. 7.
func (h *Handle) convFwdFFT(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	if cd.Stride != 1 {
		return ErrNotSupported{Reason: "FFT convolution requires stride 1"}
	}
	need := max(xd.H, xd.W) + fd.R - 1
	n, err := pickFFTSize(need)
	if err != nil {
		return err
	}
	r2c, c2r := fftKernelNames(n)
	nn := n * n

	ws := h.scratch()
	defer ws.release()
	wSpec, err := h.filterSpectra(ws, w, fd, n)
	if err != nil {
		return err
	}
	xPad := ws.alloc(4 * xd.C * nn)
	xSpec := ws.alloc(8 * xd.C * nn)
	ySpec := ws.alloc(8 * fd.K * nn)
	yFull := ws.alloc(4 * fd.K * nn)
	if ws.err != nil {
		return ws.err
	}
	for img := 0; img < xd.N; img++ {
		xOff := x + uint64(4*img*xd.C*xd.H*xd.W)
		p := cudart.NewParams().Ptr(xOff).Ptr(xPad).
			U32(uint32(xd.H)).U32(uint32(xd.W)).U32(uint32(n)).U32(uint32(n)).
			U32(0).U32(0)
		if err := h.launch2D("pad2d", nn, 256, xd.C, p); err != nil {
			return err
		}
		if err := h.launch(r2c, exec.Dim3{X: xd.C}, exec.Dim3{X: n}, cudart.NewParams().Ptr(xPad).Ptr(xSpec)); err != nil {
			return err
		}
		cg := cudart.NewParams().Ptr(xSpec).Ptr(wSpec).Ptr(ySpec).
			U32(uint32(xd.C)).U32(uint32(fd.K)).U32(uint32(nn)).U32(1)
		if err := h.launch1D("cgemm", fd.K*nn, 256, cg); err != nil {
			return err
		}
		if err := h.launch(c2r, exec.Dim3{X: fd.K}, exec.Dim3{X: n},
			cudart.NewParams().Ptr(ySpec).Ptr(yFull).F32(1/float32(nn))); err != nil {
			return err
		}
		yOff := y + uint64(4*img*fd.K*yd.H*yd.W)
		cp := cudart.NewParams().Ptr(yFull).Ptr(yOff).
			U32(uint32(n)).U32(uint32(yd.H)).U32(uint32(yd.W)).U32(uint32(cd.Pad))
		if err := h.launch2D("fft_crop", yd.H*yd.W, 256, fd.K, cp); err != nil {
			return err
		}
	}
	return nil
}

// convFwdFFTTiling decomposes the image into overlapping 32x32 (or 16x16)
// tiles with valid-region stitching (the cuDNN FFT_TILING algorithm).
func (h *Handle) convFwdFFTTiling(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	if cd.Stride != 1 {
		return ErrNotSupported{Reason: "FFT tiling requires stride 1"}
	}
	n := 32
	if fd.R >= n {
		return ErrNotSupported{Reason: "filter too large for 32x32 tiles"}
	}
	step := n - fd.R + 1
	ntx := (yd.W + step - 1) / step
	nty := (yd.H + step - 1) / step
	nt := ntx * nty
	nn := n * n
	r2c, c2r := fftKernelNames(n)

	ws := h.scratch()
	defer ws.release()
	wSpec, err := h.filterSpectra(ws, w, fd, n)
	if err != nil {
		return err
	}
	tiles := ws.alloc(4 * xd.C * nt * nn)
	xSpec := ws.alloc(8 * xd.C * nt * nn)
	ySpec := ws.alloc(8 * fd.K * nt * nn)
	yFull := ws.alloc(4 * fd.K * nt * nn)
	if ws.err != nil {
		return ws.err
	}
	for img := 0; img < xd.N; img++ {
		xOff := x + uint64(4*img*xd.C*xd.H*xd.W)
		p := cudart.NewParams().Ptr(xOff).Ptr(tiles).
			U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
			U32(uint32(n)).U32(uint32(ntx)).U32(uint32(nty)).
			U32(uint32(step)).U32(uint32(cd.Pad)).U32(uint32(n))
		if err := h.launch2D("fft_tile_extract", nn, 256, xd.C*nt, p); err != nil {
			return err
		}
		if err := h.launch(r2c, exec.Dim3{X: xd.C * nt}, exec.Dim3{X: n}, cudart.NewParams().Ptr(tiles).Ptr(xSpec)); err != nil {
			return err
		}
		cg := cudart.NewParams().Ptr(xSpec).Ptr(wSpec).Ptr(ySpec).
			U32(uint32(xd.C)).U32(uint32(fd.K)).U32(uint32(nn)).U32(uint32(nt))
		if err := h.launch2D("cgemm", fd.K*nn, 256, nt, cg); err != nil {
			return err
		}
		if err := h.launch(c2r, exec.Dim3{X: fd.K * nt}, exec.Dim3{X: n},
			cudart.NewParams().Ptr(ySpec).Ptr(yFull).F32(1/float32(nn))); err != nil {
			return err
		}
		yOff := y + uint64(4*img*fd.K*yd.H*yd.W)
		sp := cudart.NewParams().Ptr(yFull).Ptr(yOff).
			U32(uint32(yd.H)).U32(uint32(yd.W)).
			U32(uint32(n)).U32(uint32(ntx)).U32(uint32(nty)).U32(uint32(step))
		if err := h.launch2D("fft_tile_stitch", yd.H*yd.W, 256, fd.K, sp); err != nil {
			return err
		}
	}
	return nil
}

func (h *Handle) convFwdWinogradFused(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	if fd.R != 3 || fd.S != 3 || cd.Stride != 1 {
		return ErrNotSupported{Reason: "Winograd requires 3x3 filters and stride 1"}
	}
	tiles := ((yd.H + 1) / 2) * ((yd.W + 1) / 2)
	per := fd.K * tiles
	p := cudart.NewParams().Ptr(x).Ptr(w).Ptr(y).
		U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
		U32(uint32(fd.K)).U32(uint32(yd.H)).U32(uint32(yd.W)).
		U32(uint32(cd.Pad))
	return h.launch2D("winograd_fused_2x2_3x3", per, 64, xd.N, p)
}

func (h *Handle) convFwdWinogradNonfused(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc) error {
	if fd.R != 3 || fd.S != 3 || cd.Stride != 1 {
		return ErrNotSupported{Reason: "Winograd requires 3x3 filters and stride 1"}
	}
	tilesY := (yd.H + 1) / 2
	tilesX := (yd.W + 1) / 2
	P := xd.N * tilesY * tilesX
	kc := fd.K * fd.C
	cp := fd.C * P
	kp := fd.K * P

	ws := h.scratch()
	defer ws.release()
	u := ws.alloc(4 * 16 * kc)
	v := ws.alloc(4 * 16 * cp)
	m := ws.alloc(4 * 16 * kp)
	if ws.err != nil {
		return ws.err
	}
	if err := h.launch1D("winograd_filter_transform", kc, 64,
		cudart.NewParams().Ptr(w).Ptr(u).U32(uint32(kc))); err != nil {
		return err
	}
	p := cudart.NewParams().Ptr(x).Ptr(v).
		U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
		U32(uint32(tilesX)).U32(uint32(tilesY)).
		U32(uint32(cd.Pad)).U32(uint32(xd.N))
	if err := h.launch1D("winograd_input_transform", cp, 64, p); err != nil {
		return err
	}
	if err := h.sgemm("sgemm_tiled", u, v, m, fd.K, P, fd.C, kc, cp, kp, 16, 1, 0); err != nil {
		return err
	}
	op := cudart.NewParams().Ptr(m).Ptr(y).
		U32(uint32(fd.K)).U32(uint32(yd.H)).U32(uint32(yd.W)).
		U32(uint32(tilesX)).U32(uint32(tilesY)).U32(uint32(xd.N))
	return h.launch1D("winograd_output_transform", kp, 64, op)
}
