package kernels

// Max pooling. The forward kernel also records the argmax index of each
// output, as cuDNN's deterministic pooling does for its backward pass.

// maxPoolForward pools x[C,H,W] (image n = ctaid.y) with a square window
// and stride; emits y[C,OH,OW] and the flat argmax index per output.
func maxPoolForward() string {
	b := NewBuilder("maxpool_forward")
	pX, pY, pIdx := b.PtrParam("pX"), b.PtrParam("pY"), b.PtrParam("pIdx")
	pC, pH, pW := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pWidth")
	pWin, pStride := b.U32Param("pWin"), b.U32Param("pStrideC")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	end, idx, cc, oy, ox, n, ext := pixelIndex(b, pC, pOH, pOW)
	c, oh, ow := ext[0], ext[1], ext[2]

	h := b.LoadU32(pH)
	w := b.LoadU32(pW)
	win := b.LoadU32(pWin)
	stride := b.LoadU32(pStride)
	xB := b.LoadPtr(pX)

	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, h)
	b.I("mul.lo.u32 %s, %s, %s;", chw, chw, w)
	// base index of the (n, cc) plane = n*C*H*W + cc*H*W
	hw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", hw, h, w)
	base := b.planeBase(n, chw, cc, hw)

	best := b.MovF32(-3.4e38)
	bestIdx := b.R(B32)
	b.I("mov.u32 %s, 0;", bestIdx)
	iy0, ix0 := b.R(B32), b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", iy0, oy, stride)
	b.I("mul.lo.u32 %s, %s, %s;", ix0, ox, stride)

	b.window2D("PY", "PX", win, win, h, w, b.plus(iy0), b.plus(ix0), func(_, _, iy, ix string) {
		xi := b.flatIndex(iy, w, ix)
		b.I("add.u32 %s, %s, %s;", xi, xi, base)
		b.keepMax(best, bestIdx, b.ElemAddr(xB, xi, 4), xi)
	})

	cohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", cohw, c, oh)
	b.I("mul.lo.u32 %s, %s, %s;", cohw, cohw, ow)
	outIdx := b.flatIndex(n, cohw, idx)
	a := b.elemAddrs(outIdx, pY, pIdx)
	ay, ai := a[0], a[1]
	b.I("st.global.f32 [%s], %s;", ay, best)
	b.I("st.global.u32 [%s], %s;", ai, bestIdx)
	b.L(end)
	return b.Build()
}
