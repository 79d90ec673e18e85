package cudnn

import (
	"cmp"
	"fmt"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// fftFrames is how a frequency-domain convolution frames each plane: one
// n x n frame (ntx = nty = 1, step = n), or the FFT_TILING grid of
// ntx x nty overlapping 32x32 tiles whose origins are step apart.
type fftFrames struct{ n, step, ntx, nty int }

// fftFraming sizes an FFT path's frames: the smallest supported frame of
// at least need, or the 32x32 tiles whose valid regions, step = 32-r+1
// apart, cover the output yd.
func fftFraming(tiling bool, need, r int, yd TensorDesc) (fftFrames, error) {
	if tiling {
		if r >= 32 {
			return fftFrames{}, ErrNotSupported{Reason: "filter too large for 32x32 tiles"}
		}
		step := 32 - r + 1
		return fftFrames{n: 32, step: step, ntx: (yd.W + step - 1) / step, nty: (yd.H + step - 1) / step}, nil
	}
	for _, n := range []int{16, 32} {
		if need <= n {
			return fftFrames{n: n, step: n, ntx: 1, nty: 1}, nil
		}
	}
	return fftFrames{}, ErrNotSupported{Reason: fmt.Sprintf("FFT frame %d exceeds 32x32 (use FFT tiling)", need)}
}

// r2c runs the forward FFT of planes frames at src into spectra at dst.
func (h *Handle) r2c(n, planes int, src, dst uint64) error {
	name := "fft2d_r2c_32x32"
	if n == 16 {
		name = "fft2d_r2c_16x16"
	}
	return h.launch(name, exec.Dim3{X: planes}, exec.Dim3{X: n}, cudart.NewParams().Ptr(src).Ptr(dst))
}

// c2r runs the inverse FFT of planes spectra at src into frames at dst,
// scaled by 1/(n*n).
func (h *Handle) c2r(n, planes int, src, dst uint64) error {
	name := "fft2d_c2r_32x32"
	if n == 16 {
		name = "fft2d_c2r_16x16"
	}
	return h.launch(name, exec.Dim3{X: planes}, exec.Dim3{X: n},
		cudart.NewParams().Ptr(src).Ptr(dst).F32(1/float32(n*n)))
}

// pad2d zero-pads planes hgt x wid planes at src into n x n frames at dst.
func (h *Handle) pad2d(src, dst uint64, hgt, wid, n, planes int) error {
	p := cudart.NewParams().Ptr(src).Ptr(dst).
		U32(uint32(hgt)).U32(uint32(wid)).U32(uint32(n)).U32(uint32(n)).
		U32(0).U32(0)
	return h.launch2D("pad2d", n*n, 256, planes, p)
}

// tileExtract cuts the c planes hgt x wid at src, origin -pad, into f's
// frames at dst; frame positions at or beyond win read as zero.
func (h *Handle) tileExtract(src, dst uint64, c, hgt, wid int, f fftFrames, pad, win int) error {
	p := cudart.NewParams().Ptr(src).Ptr(dst).
		U32(uint32(c)).U32(uint32(hgt)).U32(uint32(wid)).
		U32(uint32(f.n)).U32(uint32(f.ntx)).U32(uint32(f.nty)).
		U32(uint32(f.step)).U32(uint32(pad)).U32(uint32(win))
	return h.launch2D("fft_tile_extract", f.n*f.n, 256, c*f.ntx*f.nty, p)
}

// convParams is the direct convolutions' parameter block, the host mirror
// of the kernels' convShape: three tensors, then N for the kernels that
// loop over images (withN), then C, H, W, K, R, S, OH, OW, stride, pad.
func convParams(a, b, c uint64, withN bool, xd TensorDesc, fd FilterDesc, yd TensorDesc, cd ConvDesc) *cudart.Params {
	p := cudart.NewParams().Ptr(a).Ptr(b).Ptr(c)
	if withN {
		p.U32(uint32(xd.N))
	}
	return p.U32(uint32(xd.C)).U32(uint32(xd.H)).U32(uint32(xd.W)).
		U32(uint32(fd.K)).U32(uint32(fd.R)).U32(uint32(fd.S)).
		U32(uint32(yd.H)).U32(uint32(yd.W)).
		U32(uint32(cd.Stride)).U32(uint32(cd.Pad))
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
	case FwdAlgoFFT, FwdAlgoFFTTiling:
		err = h.convFwdFFT(x, xd, w, fd, cd, y, yd, algo == FwdAlgoFFTTiling)
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
	p := convParams(x, w, y, false, xd, fd, yd, cd)
	return h.launch2D("implicit_gemm_conv_fwd", fd.K*yd.H*yd.W, 128, xd.N, p)
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
	if err := h.pad2d(w, pad, fd.R, fd.S, n, planes); err != nil {
		return 0, err
	}
	return spec, h.r2c(n, planes, pad, spec)
}

// convFwdFFT is the frequency-domain forward. Plain FFT transforms whole
// zero-padded images (pad2d), multiplies spectra with a 1-D CGEMM grid
// and crops the valid output (fft_crop): the path MNIST's first
// convolutions take (28x28 + 5x5 -> 32x32 frames, 12x12 + 5x5 -> 16x16
// frames), producing the fft2d_r2c_32x32 / fft2d_r2c_16x16 / CGEMM /
// fft2d_c2r kernels of Fig. 7. FFT tiling (cuDNN's FFT_TILING) frames
// each image as overlapping 32x32 tiles (fft_tile_extract), runs CGEMM
// over a grid.y of tiles and stitches the tiles' valid regions
// (fft_tile_stitch).
func (h *Handle) convFwdFFT(x uint64, xd TensorDesc, w uint64, fd FilterDesc, cd ConvDesc, y uint64, yd TensorDesc, tiling bool) error {
	if cd.Stride != 1 {
		if tiling {
			return ErrNotSupported{Reason: "FFT tiling requires stride 1"}
		}
		return ErrNotSupported{Reason: "FFT convolution requires stride 1"}
	}
	f, err := fftFraming(tiling, max(xd.H, xd.W)+fd.R-1, fd.R, yd)
	if err != nil {
		return err
	}
	n, nt, nn := f.n, f.ntx*f.nty, f.n*f.n

	ws := h.scratch()
	defer ws.release()
	wSpec, err := h.filterSpectra(ws, w, fd, n)
	if err != nil {
		return err
	}
	xFrames := ws.alloc(4 * xd.C * nt * nn)
	xSpec := ws.alloc(8 * xd.C * nt * nn)
	ySpec := ws.alloc(8 * fd.K * nt * nn)
	yFull := ws.alloc(4 * fd.K * nt * nn)
	if ws.err != nil {
		return ws.err
	}
	for img := 0; img < xd.N; img++ {
		xOff := x + uint64(4*img*xd.C*xd.H*xd.W)
		if tiling {
			err = h.tileExtract(xOff, xFrames, xd.C, xd.H, xd.W, f, cd.Pad, n)
		} else {
			err = h.pad2d(xOff, xFrames, xd.H, xd.W, n, xd.C)
		}
		if err != nil {
			return err
		}
		if err := h.r2c(n, xd.C*nt, xFrames, xSpec); err != nil {
			return err
		}
		cg := cudart.NewParams().Ptr(xSpec).Ptr(wSpec).Ptr(ySpec).
			U32(uint32(xd.C)).U32(uint32(fd.K)).U32(uint32(nn)).U32(uint32(nt))
		if tiling {
			err = h.launch2D("cgemm", fd.K*nn, 256, nt, cg)
		} else {
			err = h.launch1D("cgemm", fd.K*nn, 256, cg)
		}
		if err != nil {
			return err
		}
		if err := h.c2r(n, fd.K*nt, ySpec, yFull); err != nil {
			return err
		}
		yOff := y + uint64(4*img*fd.K*yd.H*yd.W)
		out, op := "fft_crop", cudart.NewParams().Ptr(yFull).Ptr(yOff).
			U32(uint32(n)).U32(uint32(yd.H)).U32(uint32(yd.W)).U32(uint32(cd.Pad))
		if tiling {
			out, op = "fft_tile_stitch", cudart.NewParams().Ptr(yFull).Ptr(yOff).
				U32(uint32(yd.H)).U32(uint32(yd.W)).
				U32(uint32(n)).U32(uint32(f.ntx)).U32(uint32(f.nty)).U32(uint32(f.step))
		}
		if err := h.launch2D(out, yd.H*yd.W, 256, fd.K, op); err != nil {
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
