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
	iy, ix := b.windowPos(oy, stride, rr, pad), b.windowPos(ox, stride, ss, pad)

	pin, _ := b.inBounds(iy, h, ix, w)

	x := b.LoadPtr(pX)
	col := b.LoadPtr(pCol)
	sidx := b.flatIndex(cc, h, iy, w, ix)
	v := b.loadOrZero(x, sidx, pin)
	acol := b.ElemAddr(col, idx, 4)
	b.I("st.global.f32 [%s], %s;", acol, v)
	b.L(end)
	return b.Build()
}
