package kernels

// im2col / col2im staging kernels for the GEMM convolution algorithms.
// Both lean heavily on div.u32/rem.u32 index arithmetic, as the real
// cuDNN lowering does.

// im2Col expands x[C,H,W] into col[(C*R*S), (OH*OW)] for a convolution
// with square stride/padding. One thread per output element of col.
func im2Col() string {
	b := NewBuilder("im2col")
	pX, pCol := b.PtrParam("pX"), b.PtrParam("pCol")
	pC, pH, pW := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pW")
	pR, pS := b.U32Param("pR"), b.U32Param("pS")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	pStride, pPad := b.U32Param("pStrideC"), b.U32Param("pPad")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	r := b.LoadU32(pR)
	s := b.LoadU32(pS)
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	tot := b.R("r")
	b.I("mul.lo.u32 %s, %s, %s;", tot, c, r)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, s)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, oh)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, ow)
	b.GuardEnd(idx, tot, end)

	// idx -> (cc, rr, ss, oy, ox), row-major in that order
	ox, t1 := b.remDiv(idx, ow)
	oy, t2 := b.remDiv(t1, oh)
	ss, t3 := b.remDiv(t2, s)
	rr, cc := b.remDiv(t3, r)

	stride := b.LoadU32(pStride)
	pad := b.LoadU32(pPad)
	h := b.LoadU32(pH)
	w := b.LoadU32(pW)
	iy, ix := b.R("r"), b.R("r")
	b.I("mad.lo.s32 %s, %s, %s, %s;", iy, oy, stride, rr)
	b.I("sub.u32 %s, %s, %s;", iy, iy, pad)
	b.I("mad.lo.s32 %s, %s, %s, %s;", ix, ox, stride, ss)
	b.I("sub.u32 %s, %s, %s;", ix, ix, pad)

	pin, ptmp := b.R("p"), b.R("p")
	b.I("setp.lt.u32 %s, %s, %s;", pin, iy, h)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, ix, w)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)

	x := b.LoadPtr(pX)
	col := b.LoadPtr(pCol)
	sidx := b.flatIndex(cc, h, iy, w, ix)
	clamped := b.R("r")
	b.I("selp.b32 %s, %s, 0, %s;", clamped, sidx, pin)
	ax := b.ElemAddr(x, clamped, 4)
	v := b.R("f")
	z := b.MovF32(0)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	b.I("selp.b32 %s, %s, %s, %s;", v, v, z, pin)
	acol := b.ElemAddr(col, idx, 4)
	b.I("st.global.f32 [%s], %s;", acol, v)
	b.L(end)
	return b.Build()
}

// col2Im folds col[(C*R*S), (OH*OW)] gradients back into dx[C,H,W]
// (gather formulation: one thread per input pixel, no atomics).
func col2Im() string {
	b := NewBuilder("col2im")
	pCol, pDX := b.PtrParam("pCol"), b.PtrParam("pDX")
	pC, pH, pW := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pW")
	pR, pS := b.U32Param("pR"), b.U32Param("pS")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	pStride, pPad := b.U32Param("pStrideC"), b.U32Param("pPad")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	h := b.LoadU32(pH)
	w := b.LoadU32(pW)
	tot := b.R("r")
	b.I("mul.lo.u32 %s, %s, %s;", tot, c, h)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, w)
	b.GuardEnd(idx, tot, end)

	ix, t1 := b.remDiv(idx, w)
	iy, cc := b.remDiv(t1, h)

	r := b.LoadU32(pR)
	s := b.LoadU32(pS)
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	stride := b.LoadU32(pStride)
	pad := b.LoadU32(pPad)
	col := b.LoadPtr(pCol)
	acc := b.MovF32(0)
	ohw := b.R("r")
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)

	b.loop("R_LOOP", "r_end", "0", r, "1", func(rr string) {
		b.loop("S_LOOP", "s_end", "0", s, "1", func(ss string) {
			// oy = (iy + pad - rr) / stride, valid if non-negative, divisible, < OH
			ny, nx := b.R("r"), b.R("r")
			b.I("add.u32 %s, %s, %s;", ny, iy, pad)
			b.I("sub.u32 %s, %s, %s;", ny, ny, rr)
			b.I("add.u32 %s, %s, %s;", nx, ix, pad)
			b.I("sub.u32 %s, %s, %s;", nx, nx, ss)
			skip := b.NewLabel("skip")
			bigP := b.R("p")
			// unsigned wraparound: a huge value means iy+pad < rr
			lim := b.R("r")
			b.I("mul.lo.u32 %s, %s, %s;", lim, oh, stride)
			b.I("setp.ge.u32 %s, %s, %s;", bigP, ny, lim)
			b.I("@%s bra %s;", bigP, skip)
			limx := b.R("r")
			b.I("mul.lo.u32 %s, %s, %s;", limx, ow, stride)
			b.I("setp.ge.u32 %s, %s, %s;", bigP, nx, limx)
			b.I("@%s bra %s;", bigP, skip)
			remy, remx := b.R("r"), b.R("r")
			b.I("rem.u32 %s, %s, %s;", remy, ny, stride)
			b.I("setp.ne.u32 %s, %s, 0;", bigP, remy)
			b.I("@%s bra %s;", bigP, skip)
			b.I("rem.u32 %s, %s, %s;", remx, nx, stride)
			b.I("setp.ne.u32 %s, %s, 0;", bigP, remx)
			b.I("@%s bra %s;", bigP, skip)
			oy, oxv := b.R("r"), b.R("r")
			b.I("div.u32 %s, %s, %s;", oy, ny, stride)
			b.I("div.u32 %s, %s, %s;", oxv, nx, stride)
			// col index: (((cc*R+rr)*S+ss)*OH + oy)*OW + ox
			ac := b.ElemAddr(col, b.flatIndex(cc, r, rr, s, ss, oh, oy, ow, oxv), 4)
			v := b.R("f")
			b.I("ld.global.f32 %s, [%s];", v, ac)
			b.I("add.f32 %s, %s, %s;", acc, acc, v)
			b.L(skip)
		})
	})

	dx := b.LoadPtr(pDX)
	adx := b.ElemAddr(dx, idx, 4)
	b.I("st.global.f32 [%s], %s;", adx, acc)
	b.L(end)
	return b.Build()
}
