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
	base := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", base, n, chw)
	b.I("mad.lo.s32 %s, %s, %s, %s;", base, cc, hw, base)

	best := b.MovF32(-3.4e38)
	bestIdx := b.R(B32)
	b.I("mov.u32 %s, 0;", bestIdx)
	iy0, ix0 := b.R(B32), b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", iy0, oy, stride)
	b.I("mul.lo.u32 %s, %s, %s;", ix0, ox, stride)

	b.loop("PY_LOOP", "py_end", "0", win, "1", func(dy string) {
		iy := b.R(B32)
		b.I("add.u32 %s, %s, %s;", iy, iy0, dy)
		pySkip := b.R(Pred)
		ynext := b.NewLabel("py_next")
		b.I("setp.ge.u32 %s, %s, %s;", pySkip, iy, h)
		b.I("@%s bra %s;", pySkip, ynext)
		b.loopNext("PX_LOOP", "px_next", "px_end", "0", win, "1", func(dx, xnext string) {
			ix := b.R(B32)
			b.I("add.u32 %s, %s, %s;", ix, ix0, dx)
			pxSkip := b.R(Pred)
			b.I("setp.ge.u32 %s, %s, %s;", pxSkip, ix, w)
			b.I("@%s bra %s;", pxSkip, xnext)
			xi := b.flatIndex(iy, w, ix)
			b.I("add.u32 %s, %s, %s;", xi, xi, base)
			ax := b.ElemAddr(xB, xi, 4)
			v := b.R(F32)
			b.I("ld.global.f32 %s, [%s];", v, ax)
			pbetter := b.R(Pred)
			b.I("setp.gt.f32 %s, %s, %s;", pbetter, v, best)
			b.I("selp.b32 %s, %s, %s, %s;", best, v, best, pbetter)
			b.I("selp.b32 %s, %s, %s, %s;", bestIdx, xi, bestIdx, pbetter)
		})
		b.L(ynext)
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
