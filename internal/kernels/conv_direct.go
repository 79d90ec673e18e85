package kernels

// Direct convolution kernels: the Implicit GEMM forward kernel and the
// "Algorithm 0/1/3" backward kernels the paper's conv_sample case study
// sweeps over (§V-A). Tensors are NCHW; filters are KCRS.

// convShape names a convolution kernel's u32 shape parameters.
type convShape struct{ c, h, w, k, r, s, oh, ow, stride, pad string }

// convParams declares the u32 shape parameters that follow a convolution
// kernel's pointers (and, in the kernels that loop over images, pN): pC,
// pH, the width, pK, pR, pS, pOH, pOW, pStrideC, pPad. The direct
// kernels name the width pWidth, because pW is the filter; im2col, which
// has no filter, names it pW and declares no pK.
func (b *Builder) convParams(width string, withK bool) (sh convShape) {
	sh.c, sh.h, sh.w = b.U32Param("pC"), b.U32Param("pH"), b.U32Param(width)
	if withK {
		sh.k = b.U32Param("pK")
	}
	sh.r, sh.s = b.U32Param("pR"), b.U32Param("pS")
	sh.oh, sh.ow = b.U32Param("pOH"), b.U32Param("pOW")
	sh.stride, sh.pad = b.U32Param("pStrideC"), b.U32Param("pPad")
	return sh
}

// pixelIndex emits the common one-thread-per-pixel decomposition over a
// [C, H, W] plane stack whose extents are the u32 parameters pC, pH, pW:
// idx -> (c, y, x), guarded against idx >= C*H*W (guardTid). grid.y
// carries the image index n. ext returns the three loaded extents.
func pixelIndex(b *Builder, pC, pH, pW string) (end, idx, c, y, x, n string, ext []string) {
	end, idx, ext = b.guardTid(pC, pH, pW)
	x, t1 := b.remDiv(idx, ext[2])
	y, c = b.remDiv(t1, ext[1])
	n = b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", n)
	return end, idx, c, y, x, n, ext
}

// patchOrigin emits the top-left input coordinate (oy*stride-pad,
// ox*stride-pad) of the filter window of output pixel (oy, ox).
func patchOrigin(b *Builder, oy, ox, stride, pad string) (iy0, ix0 string) {
	iy0, ix0 = b.R(B32), b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", iy0, oy, stride)
	b.I("sub.u32 %s, %s, %s;", iy0, iy0, pad)
	b.I("mul.lo.u32 %s, %s, %s;", ix0, ox, stride)
	b.I("sub.u32 %s, %s, %s;", ix0, ix0, pad)
	return iy0, ix0
}

// imageOffset emits n*C*H*W, the flat offset of image n.
func imageOffset(b *Builder, n, c, h, w string) string {
	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, h)
	b.I("mul.lo.u32 %s, %s, %s;", chw, chw, w)
	imgOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", imgOff, n, chw)
	return imgOff
}

// convForwardImplicitGemm computes y[n,k,oy,ox] = sum_{c,r,s}
// x[n,c,oy*st-pad+r,ox*st-pad+s] * w[k,c,r,s] directly (no im2col
// staging). One thread per output pixel; border handling branches cause
// the idle-warp/data-hazard pattern of the paper's Fig. 23.
func convForwardImplicitGemm() string {
	b := NewBuilder("implicit_gemm_conv_fwd")
	pX, pW, pY := b.PtrParam("pX"), b.PtrParam("pW"), b.PtrParam("pY")
	sh := b.convParams("pWidth", true)
	end, idx, kk, oy, ox, n, _ := pixelIndex(b, sh.k, sh.oh, sh.ow)

	c := b.LoadU32(sh.c)
	h := b.LoadU32(sh.h)
	w := b.LoadU32(sh.w)
	r := b.LoadU32(sh.r)
	s := b.LoadU32(sh.s)
	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	xB := b.LoadPtr(pX)
	wB := b.LoadPtr(pW)
	yB := b.LoadPtr(pY)

	imgOff := imageOffset(b, n, c, h, w)
	iy0, ix0 := patchOrigin(b, oy, ox, stride, pad)

	acc := b.MovF32(0)
	b.loop("C_LOOP", "c_end", "0", c, "1", func(cc string) {
		b.loop("RR_LOOP", "rr_end", "0", r, "1", func(rr string) {
			iy := b.R(B32)
			b.I("add.u32 %s, %s, %s;", iy, iy0, rr)
			pskipR := b.R(Pred)
			rnext := b.NewLabel("rr_next")
			b.I("setp.ge.u32 %s, %s, %s;", pskipR, iy, h)
			b.I("@%s bra %s;", pskipR, rnext)
			b.loopNext("SS_LOOP", "ss_next", "ss_end", "0", s, "1", func(ss, snext string) {
				ix := b.R(B32)
				b.I("add.u32 %s, %s, %s;", ix, ix0, ss)
				pskipS := b.R(Pred)
				b.I("setp.ge.u32 %s, %s, %s;", pskipS, ix, w)
				b.I("@%s bra %s;", pskipS, snext)
				// x[n, cc, iy, ix]
				xi := b.flatIndex(cc, h, iy, w, ix)
				b.I("add.u32 %s, %s, %s;", xi, xi, imgOff)
				ax := b.ElemAddr(xB, xi, 4)
				// w[kk, cc, rr, ss]
				aw := b.ElemAddr(wB, b.flatIndex(kk, c, cc, r, rr, s, ss), 4)
				vx, vw := b.R(F32), b.R(F32)
				b.I("ld.global.f32 %s, [%s];", vx, ax)
				b.I("ld.global.f32 %s, [%s];", vw, aw)
				b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vx, vw, acc)
			})
			b.L(rnext)
		})
	})

	// y[n, kk, oy, ox] = acc  (idx already enumerates k*OH*OW)
	ohw := b.R(B32)
	khw := b.R(B32)
	kreg := b.LoadU32(sh.k)
	oh2 := b.LoadU32(sh.oh)
	ow2 := b.LoadU32(sh.ow)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh2, ow2)
	b.I("mul.lo.u32 %s, %s, %s;", khw, kreg, ohw)
	ay := b.ElemAddr(yB, b.flatIndex(n, khw, idx), 4)
	b.I("st.global.f32 [%s], %s;", ay, acc)
	b.L(end)
	return b.Build()
}

// convBwdDataAlgo0 computes dx[n,c,iy,ix] = sum_{k,r,s valid}
// dy[n,k,oy,ox] * w[k,c,r,s] (gather form, deterministic, no atomics).
func convBwdDataAlgo0() string {
	b := NewBuilder("conv_bwd_data_algo0")
	pDY, pW, pDX := b.PtrParam("pDY"), b.PtrParam("pW"), b.PtrParam("pDX")
	sh := b.convParams("pWidth", true)
	end, idx, cc, iy, ix, n, ext := pixelIndex(b, sh.c, sh.h, sh.w)
	c, h, w := ext[0], ext[1], ext[2]

	k := b.LoadU32(sh.k)
	r := b.LoadU32(sh.r)
	s := b.LoadU32(sh.s)
	oh := b.LoadU32(sh.oh)
	ow := b.LoadU32(sh.ow)
	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	dyB := b.LoadPtr(pDY)
	wB := b.LoadPtr(pW)
	dxB := b.LoadPtr(pDX)

	acc := b.MovF32(0)
	b.loop("K_LOOP", "k_end", "0", k, "1", func(kk string) {
		b.loop("RD_LOOP", "rd_end", "0", r, "1", func(rr string) {
			b.loopNext("SD_LOOP", "sd_next", "sd_end", "0", s, "1", func(ss, snext string) {
				ny, nx := b.R(B32), b.R(B32)
				b.I("add.u32 %s, %s, %s;", ny, iy, pad)
				b.I("sub.u32 %s, %s, %s;", ny, ny, rr)
				b.I("add.u32 %s, %s, %s;", nx, ix, pad)
				b.I("sub.u32 %s, %s, %s;", nx, nx, ss)
				pv := b.R(Pred)
				lim := b.R(B32)
				b.I("mul.lo.u32 %s, %s, %s;", lim, oh, stride)
				b.I("setp.ge.u32 %s, %s, %s;", pv, ny, lim)
				b.I("@%s bra %s;", pv, snext)
				b.I("mul.lo.u32 %s, %s, %s;", lim, ow, stride)
				b.I("setp.ge.u32 %s, %s, %s;", pv, nx, lim)
				b.I("@%s bra %s;", pv, snext)
				remv := b.R(B32)
				b.I("rem.u32 %s, %s, %s;", remv, ny, stride)
				b.I("setp.ne.u32 %s, %s, 0;", pv, remv)
				b.I("@%s bra %s;", pv, snext)
				b.I("rem.u32 %s, %s, %s;", remv, nx, stride)
				b.I("setp.ne.u32 %s, %s, 0;", pv, remv)
				b.I("@%s bra %s;", pv, snext)
				oyv, oxv := b.R(B32), b.R(B32)
				b.I("div.u32 %s, %s, %s;", oyv, ny, stride)
				b.I("div.u32 %s, %s, %s;", oxv, nx, stride)
				// dy[n, kk, oyv, oxv] and w[kk, cc, rr, ss]
				ady := b.ElemAddr(dyB, b.flatIndex(n, k, kk, oh, oyv, ow, oxv), 4)
				aw := b.ElemAddr(wB, b.flatIndex(kk, c, cc, r, rr, s, ss), 4)
				vdy, vw := b.R(F32), b.R(F32)
				b.I("ld.global.f32 %s, [%s];", vdy, ady)
				b.I("ld.global.f32 %s, [%s];", vw, aw)
				b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vdy, vw, acc)
			})
		})
	})

	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, h)
	b.I("mul.lo.u32 %s, %s, %s;", chw, chw, w)
	adx := b.ElemAddr(dxB, b.flatIndex(n, chw, idx), 4)
	b.I("st.global.f32 [%s], %s;", adx, acc)
	b.L(end)
	return b.Build()
}

// convAlgo1 emits the two atomics-based "Algorithm 1" backward kernels,
// which differ only in the direction of the scatter. One thread per
// output-gradient pixel (k, oy, ox) of image n = ctaid.y loads its dy
// value once, loops over (c, r, s), multiplies dy with the element its
// source tensor pairs with that step and adds the product into its
// destination tensor with atom.global.add.f32. For the data gradient the
// pointers are (dy, w, dx): the source is the filter, the destination
// the input gradient; with toFilter they are (x, dy, dw): the source is
// the input, the destination the filter gradient. tag makes the labels.
func convAlgo1(name string, ptrs [3]string, tag string, toFilter bool) string {
	b := NewBuilder(name)
	for _, p := range ptrs {
		b.PtrParam(p)
	}
	sh := b.convParams("pWidth", true)
	end, _, kk, oy, ox, n, _ := pixelIndex(b, sh.k, sh.oh, sh.ow)

	c := b.LoadU32(sh.c)
	h := b.LoadU32(sh.h)
	w := b.LoadU32(sh.w)
	k := b.LoadU32(sh.k)
	r := b.LoadU32(sh.r)
	s := b.LoadU32(sh.s)
	oh := b.LoadU32(sh.oh)
	ow := b.LoadU32(sh.ow)
	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	dyB, srcB, dstB := b.LoadPtr(ptrs[0]), b.LoadPtr(ptrs[1]), b.LoadPtr(ptrs[2])
	if toFilter {
		dyB, srcB = srcB, dyB
	}

	// load this thread's dy value once
	ady := b.ElemAddr(dyB, b.flatIndex(n, k, kk, oh, oy, ow, ox), 4)
	vdy := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vdy, ady)

	iy0, ix0 := patchOrigin(b, oy, ox, stride, pad)
	imgOff := imageOffset(b, n, c, h, w)

	b.loop("C"+tag+"_LOOP", "c"+tag+"_end", "0", c, "1", func(cc string) {
		b.loop("R"+tag+"_LOOP", "r"+tag+"_end", "0", r, "1", func(rr string) {
			b.loopNext("S"+tag+"_LOOP", "s"+tag+"_next", "s"+tag+"_end", "0", s, "1", func(ss, snext string) {
				iy, ix := b.R(B32), b.R(B32)
				b.I("add.u32 %s, %s, %s;", iy, iy0, rr)
				b.I("add.u32 %s, %s, %s;", ix, ix0, ss)
				pv := b.R(Pred)
				b.I("setp.ge.u32 %s, %s, %s;", pv, iy, h)
				b.I("@%s bra %s;", pv, snext)
				b.I("setp.ge.u32 %s, %s, %s;", pv, ix, w)
				b.I("@%s bra %s;", pv, snext)
				// this step pairs filter element [kk, cc, rr, ss] with
				// image element [n, cc, iy, ix]
				filterIdx := func() string { return b.flatIndex(kk, c, cc, r, rr, s, ss) }
				imageIdx := func() string {
					xi := b.flatIndex(cc, h, iy, w, ix)
					b.I("add.u32 %s, %s, %s;", xi, xi, imgOff)
					return xi
				}
				srcIdx, dstIdx := filterIdx, imageIdx
				if toFilter {
					srcIdx, dstIdx = imageIdx, filterIdx
				}
				asrc := b.ElemAddr(srcB, srcIdx(), 4)
				vsrc, contrib := b.R(F32), b.R(F32)
				b.I("ld.global.f32 %s, [%s];", vsrc, asrc)
				b.I("mul.f32 %s, %s, %s;", contrib, vdy, vsrc)
				adst := b.ElemAddr(dstB, dstIdx(), 4)
				oldv := b.R(F32)
				b.I("atom.global.add.f32 %s, [%s], %s;", oldv, adst, contrib)
			})
		})
	})
	b.L(end)
	return b.Build()
}

// convBwdDataAlgo1 scatters dy through the filter into dx with
// atom.global.add.f32 — one thread per output-gradient pixel. Matches
// cuDNN's atomics-based "Algorithm 1" flavour.
func convBwdDataAlgo1() string {
	return convAlgo1("conv_bwd_data_algo1", [3]string{"pDY", "pW", "pDX"}, "A", false)
}

// convBwdFilterAlgo1 scatters per-output-pixel contributions into dw with
// atomics: one thread per (k, oy, ox) pixel of image n = ctaid.y, looping
// over (c, r, s).
func convBwdFilterAlgo1() string {
	return convAlgo1("conv_bwd_filter_algo1", [3]string{"pX", "pDY", "pDW"}, "F1", true)
}

// convBwdFilterAlgo0 computes dw[k,c,r,s] = sum_{n,oy,ox} dy[n,k,oy,ox] *
// x[n,c,oy*st-pad+r,ox*st-pad+s]. One thread per filter element;
// deterministic.
func convBwdFilterAlgo0() string {
	b := NewBuilder("conv_bwd_filter_algo0")
	pX, pDY, pDW := b.PtrParam("pX"), b.PtrParam("pDY"), b.PtrParam("pDW")
	pN := b.U32Param("pN")
	sh := b.convParams("pWidth", true)
	end, idx, ext := b.guardTid(sh.k, sh.c, sh.r, sh.s)
	k, c, r, s := ext[0], ext[1], ext[2], ext[3]
	ss, t1 := b.remDiv(idx, s)
	rr, t2 := b.remDiv(t1, r)
	cc, kk := b.remDiv(t2, c)

	nN := b.LoadU32(pN)
	h := b.LoadU32(sh.h)
	w := b.LoadU32(sh.w)
	oh := b.LoadU32(sh.oh)
	ow := b.LoadU32(sh.ow)
	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	xB := b.LoadPtr(pX)
	dyB := b.LoadPtr(pDY)
	dwB := b.LoadPtr(pDW)

	acc := b.MovF32(0)
	b.loop("NF_LOOP", "nf_end", "0", nN, "1", func(nn string) {
		b.loop("YF_LOOP", "yf_end", "0", oh, "1", func(oyv string) {
			iy := b.R(B32)
			b.I("mad.lo.s32 %s, %s, %s, %s;", iy, oyv, stride, rr)
			b.I("sub.u32 %s, %s, %s;", iy, iy, pad)
			pskipY := b.R(Pred)
			ynext := b.NewLabel("yf_next")
			b.I("setp.ge.u32 %s, %s, %s;", pskipY, iy, h)
			b.I("@%s bra %s;", pskipY, ynext)
			b.loopNext("XF_LOOP", "xf_next", "xf_end", "0", ow, "1", func(oxv, xnext string) {
				ix := b.R(B32)
				b.I("mad.lo.s32 %s, %s, %s, %s;", ix, oxv, stride, ss)
				b.I("sub.u32 %s, %s, %s;", ix, ix, pad)
				pskipX := b.R(Pred)
				b.I("setp.ge.u32 %s, %s, %s;", pskipX, ix, w)
				b.I("@%s bra %s;", pskipX, xnext)
				// dy[nn, kk, oyv, oxv] and x[nn, cc, iy, ix]
				ady := b.ElemAddr(dyB, b.flatIndex(nn, k, kk, oh, oyv, ow, oxv), 4)
				ax := b.ElemAddr(xB, b.flatIndex(nn, c, cc, h, iy, w, ix), 4)
				vdy, vx := b.R(F32), b.R(F32)
				b.I("ld.global.f32 %s, [%s];", vdy, ady)
				b.I("ld.global.f32 %s, [%s];", vx, ax)
				b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vdy, vx, acc)
			})
			b.L(ynext)
		})
	})

	adw := b.ElemAddr(dwB, idx, 4)
	b.I("st.global.f32 [%s], %s;", adw, acc)
	b.L(end)
	return b.Build()
}

// convBwdFilterAlgo3 is the tiled variant: each block owns one filter
// element (ctaid.x indexes k*c*r*s) and its 256 threads stride over all
// (n, oy, ox) positions, reduce in shared memory, and thread 0 writes the
// block's sum — deterministic, one store per filter element.
func convBwdFilterAlgo3() string {
	b := NewBuilder("conv_bwd_filter_algo3")
	pX, pDY, pDW := b.PtrParam("pX"), b.PtrParam("pDY"), b.PtrParam("pDW")
	pN := b.U32Param("pN")
	sh := b.convParams("pWidth", true)
	sred := b.Shared("sred", 256*4, 4)

	fidx := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", fidx)
	tid := b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", tid)
	k := b.LoadU32(sh.k)
	c := b.LoadU32(sh.c)
	r := b.LoadU32(sh.r)
	s := b.LoadU32(sh.s)
	ss, t1 := b.remDiv(fidx, s)
	rr, t2 := b.remDiv(t1, r)
	cc, kk := b.remDiv(t2, c)

	nN := b.LoadU32(pN)
	h := b.LoadU32(sh.h)
	w := b.LoadU32(sh.w)
	oh := b.LoadU32(sh.oh)
	ow := b.LoadU32(sh.ow)
	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	xB := b.LoadPtr(pX)
	dyB := b.LoadPtr(pDY)
	dwB := b.LoadPtr(pDW)

	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, nN, oh)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, ow)
	acc := b.MovF32(0)
	b.loop("P3_LOOP", "p3_end", tid, tot, "256", func(pos string) {
		oxv, tq := b.remDiv(pos, ow)
		oyv, nn := b.remDiv(tq, oh)
		iy, ix := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, %s, %s;", iy, oyv, stride, rr)
		b.I("sub.u32 %s, %s, %s;", iy, iy, pad)
		b.I("mad.lo.s32 %s, %s, %s, %s;", ix, oxv, stride, ss)
		b.I("sub.u32 %s, %s, %s;", ix, ix, pad)
		pv := b.R(Pred)
		pnext := b.NewLabel("p3_next")
		b.I("setp.ge.u32 %s, %s, %s;", pv, iy, h)
		b.I("@%s bra %s;", pv, pnext)
		b.I("setp.ge.u32 %s, %s, %s;", pv, ix, w)
		b.I("@%s bra %s;", pv, pnext)
		// dy[nn, kk, oyv, oxv] and x[nn, cc, iy, ix]
		ady := b.ElemAddr(dyB, b.flatIndex(nn, k, kk, oh, oyv, ow, oxv), 4)
		ax := b.ElemAddr(xB, b.flatIndex(nn, c, cc, h, iy, w, ix), 4)
		vdy, vx := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", vdy, ady)
		b.I("ld.global.f32 %s, [%s];", vx, ax)
		b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vdy, vx, acc)
		b.L(pnext)
	})

	// tree reduction in shared memory
	_, myslot := b.laneSlots(sred, tid)
	b.reduceShared("add", 256, tid, myslot, acc, "RED_LOOP", "red_end", "skip_add")

	pw := b.R(Pred)
	done := b.NewLabel("done")
	b.I("setp.ne.u32 %s, %s, 0;", pw, tid)
	b.I("@%s bra %s;", pw, done)
	res := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", res, myslot)
	adw := b.ElemAddr(dwB, fidx, 4)
	b.I("st.global.f32 [%s], %s;", adw, res)
	b.L(done)
	return b.Build()
}
