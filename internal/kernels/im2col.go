package kernels

// im2col staging kernel for the GEMM convolution algorithm. It leans
// heavily on div.u32/rem.u32 index arithmetic, as the real cuDNN lowering
// does.

// im2Col expands x[C,H,W] into col[(C*R*S), (OH*OW)] for a convolution
// with square stride/padding. One thread per output element of col.
func im2Col() string {
	b := NewBuilder("im2col")
	pX, pCol := b.PtrParam("pX"), b.PtrParam("pCol")
	sh := b.convParams("pW", false)
	end, idx, ext := b.guardTid(sh.c, sh.r, sh.s, sh.oh, sh.ow)
	r, s, oh, ow := ext[1], ext[2], ext[3], ext[4]

	// idx -> (cc, rr, ss, oy, ox), row-major in that order
	ox, t1 := b.remDiv(idx, ow)
	oy, t2 := b.remDiv(t1, oh)
	ss, t3 := b.remDiv(t2, s)
	rr, cc := b.remDiv(t3, r)

	stride := b.LoadU32(sh.stride)
	pad := b.LoadU32(sh.pad)
	h := b.LoadU32(sh.h)
	w := b.LoadU32(sh.w)
	iy, ix := b.R(B32), b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", iy, oy, stride, rr)
	b.I("sub.u32 %s, %s, %s;", iy, iy, pad)
	b.I("mad.lo.s32 %s, %s, %s, %s;", ix, ox, stride, ss)
	b.I("sub.u32 %s, %s, %s;", ix, ix, pad)

	pin, ptmp := b.R(Pred), b.R(Pred)
	b.I("setp.lt.u32 %s, %s, %s;", pin, iy, h)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, ix, w)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)

	x := b.LoadPtr(pX)
	col := b.LoadPtr(pCol)
	sidx := b.flatIndex(cc, h, iy, w, ix)
	clamped := b.R(B32)
	b.I("selp.b32 %s, %s, 0, %s;", clamped, sidx, pin)
	ax := b.ElemAddr(x, clamped, 4)
	v := b.R(F32)
	z := b.MovF32(0)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	b.I("selp.b32 %s, %s, %s, %s;", v, v, z, pin)
	acol := b.ElemAddr(col, idx, 4)
	b.I("st.global.f32 [%s], %s;", acol, v)
	b.L(end)
	return b.Build()
}
