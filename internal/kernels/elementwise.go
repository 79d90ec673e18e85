package kernels

// Elementwise and helper kernels: activation functions, bias, SGD update,
// filter rotation (used to express backward-data convolution as a forward
// convolution), zero-padding (FFT staging) and FP16 conversions.

// reluForward computes y[i] = max(x[i], 0) over n elements.
func reluForward() string {
	b := NewBuilder("relu_forward")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pX, pY)
	ax, ay := a[0], a[1]
	v := b.R(F32)
	z := b.MovF32(0)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	b.I("max.f32 %s, %s, %s;", v, v, z)
	b.I("st.global.f32 [%s], %s;", ay, v)
	b.L(end)
	return b.Build()
}

// reluBackward computes dx[i] = x[i] > 0 ? dy[i] : 0.
func reluBackward() string {
	b := NewBuilder("relu_backward")
	pDY, pX, pDX := b.PtrParam("pDY"), b.PtrParam("pX"), b.PtrParam("pDX")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pDY, pX, pDX)
	ady, ax, adx := a[0], a[1], a[2]
	vdy, vx, out := b.R(F32), b.R(F32), b.R(F32)
	z := b.MovF32(0)
	p := b.R(Pred)
	b.I("ld.global.f32 %s, [%s];", vdy, ady)
	b.I("ld.global.f32 %s, [%s];", vx, ax)
	b.I("setp.gt.f32 %s, %s, %s;", p, vx, z)
	b.I("selp.b32 %s, %s, %s, %s;", out, vdy, z, p)
	b.I("st.global.f32 [%s], %s;", adx, out)
	b.L(end)
	return b.Build()
}

// addBias adds per-channel bias over an NCHW tensor: y[i] += bias[(i /
// spatial) %% channels]. The channel decomposition uses div.u32 and
// rem.u32 — the very instruction whose GPGPU-Sim implementation the paper
// debugged.
func addBias() string {
	b := NewBuilder("add_bias")
	pY, pB := b.PtrParam("pY"), b.PtrParam("pBias")
	pN, pC, pSp := b.U32Param("pN"), b.U32Param("pC"), b.U32Param("pSpatial")
	end, idx, _ := b.guardTid(pN)
	c := b.LoadU32(pC)
	sp := b.LoadU32(pSp)
	q, ch := b.R(B32), b.R(B32)
	b.I("div.u32 %s, %s, %s;", q, idx, sp)
	b.I("rem.u32 %s, %s, %s;", ch, q, c)
	y := b.LoadPtr(pY)
	bias := b.LoadPtr(pB)
	ay := b.ElemAddr(y, idx, 4)
	ab := b.ElemAddr(bias, ch, 4)
	vy, vb := b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vy, ay)
	b.I("ld.global.f32 %s, [%s];", vb, ab)
	b.I("add.f32 %s, %s, %s;", vy, vy, vb)
	b.I("st.global.f32 [%s], %s;", ay, vy)
	b.L(end)
	return b.Build()
}

// sgdUpdate performs w[i] -= lr * g[i].
func sgdUpdate() string {
	b := NewBuilder("sgd_update")
	pW, pG := b.PtrParam("pW"), b.PtrParam("pG")
	pN := b.U32Param("pN")
	pLR := b.F32Param("pLR")
	end, idx, _ := b.guardTid(pN)
	lr := b.LoadF32(pLR)
	a := b.elemAddrs(idx, pW, pG)
	aw, ag := a[0], a[1]
	vw, vg := b.R(F32), b.R(F32)
	nlr := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vw, aw)
	b.I("ld.global.f32 %s, [%s];", vg, ag)
	b.I("neg.f32 %s, %s;", nlr, lr)
	b.I("fma.rn.f32 %s, %s, %s, %s;", vw, nlr, vg, vw)
	b.I("st.global.f32 [%s], %s;", aw, vw)
	b.L(end)
	return b.Build()
}

// accumulateAdd computes y[i] += x[i].
func accumulateAdd() string {
	b := NewBuilder("accumulate_add")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pX, pY)
	ax, ay := a[0], a[1]
	vx, vy := b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vx, ax)
	b.I("ld.global.f32 %s, [%s];", vy, ay)
	b.I("add.f32 %s, %s, %s;", vy, vy, vx)
	b.I("st.global.f32 [%s], %s;", ay, vy)
	b.L(end)
	return b.Build()
}

// fillZero writes 0 to n floats.
func fillZero() string {
	b := NewBuilder("fill_zero")
	pY := b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	ay := b.elemAddrs(idx, pY)[0]
	z := b.MovF32(0)
	b.I("st.global.f32 [%s], %s;", ay, z)
	b.L(end)
	return b.Build()
}

// rotateFilter180 converts a KCRS filter bank into the CKR'S' bank used to
// express backward-data convolution as a forward convolution: out[c, k,
// R-1-r, S-1-s] = in[k, c, r, s]. Uses div/rem index arithmetic.
func rotateFilter180() string {
	b := NewBuilder("rotate_filter_180")
	pIn, pOut := b.PtrParam("pIn"), b.PtrParam("pOut")
	pK, pC, pR, pS := b.U32Param("pK"), b.U32Param("pC"), b.U32Param("pR"), b.U32Param("pS")
	end, idx, ext := b.guardTid(pK, pC, pR, pS)
	k, c, r, s := ext[0], ext[1], ext[2], ext[3]
	// idx -> (kk, cc, rr, ss) in KCRS order
	ss, t1 := b.remDiv(idx, s)
	rr, t2 := b.remDiv(t1, r)
	cc, kk := b.remDiv(t2, c)
	// out index: ((cc*K + kk)*R + (R-1-rr))*S + (S-1-ss)
	rref, ssref := b.R(B32), b.R(B32)
	b.I("sub.u32 %s, %s, %s;", rref, r, rr)
	b.I("sub.u32 %s, %s, 1;", rref, rref)
	b.I("sub.u32 %s, %s, %s;", ssref, s, ss)
	b.I("sub.u32 %s, %s, 1;", ssref, ssref)
	o := b.flatIndex(cc, k, kk, r, rref, s, ssref)
	in := b.LoadPtr(pIn)
	out := b.LoadPtr(pOut)
	ain := b.ElemAddr(in, idx, 4)
	aout := b.ElemAddr(out, o, 4)
	v := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, ain)
	b.I("st.global.f32 [%s], %s;", aout, v)
	b.L(end)
	return b.Build()
}

// pad2D zero-pads an HxW single-channel image into an OHxOW frame at
// offset (top, left); one thread per destination pixel, grid.y = channel
// plane index (source planes are HxW contiguous, destination OHxOW).
func pad2D() string {
	b := NewBuilder("pad2d")
	pIn, pOut := b.PtrParam("pIn"), b.PtrParam("pOut")
	pH, pW := b.U32Param("pH"), b.U32Param("pW")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	pTop, pLeft := b.U32Param("pTop"), b.U32Param("pLeft")
	end, idx, ext := b.guardTid(pOH, pOW)
	oh, ow := ext[0], ext[1]
	plane := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", plane)
	oy, ox := b.divRem(idx, ow)
	top := b.LoadU32(pTop)
	left := b.LoadU32(pLeft)
	h := b.LoadU32(pH)
	w := b.LoadU32(pW)
	iy, ix := b.R(B32), b.R(B32)
	b.I("sub.u32 %s, %s, %s;", iy, oy, top)
	b.I("sub.u32 %s, %s, %s;", ix, ox, left)
	// in-bounds test uses unsigned wraparound: iy < H && ix < W
	pin, ptmp := b.R(Pred), b.R(Pred)
	b.I("setp.lt.u32 %s, %s, %s;", pin, iy, h)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, ix, w)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)
	in := b.LoadPtr(pIn)
	out := b.LoadPtr(pOut)
	// source address (clamped to 0 when out of bounds to stay in range)
	sidx, clamped := b.R(B32), b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", sidx, iy, w, ix)
	planeOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", planeOff, h, w)
	b.I("mad.lo.s32 %s, %s, %s, %s;", sidx, plane, planeOff, sidx)
	b.I("selp.b32 %s, %s, 0, %s;", clamped, sidx, pin)
	ain := b.ElemAddr(in, clamped, 4)
	v := b.R(F32)
	z := b.MovF32(0)
	b.I("ld.global.f32 %s, [%s];", v, ain)
	b.I("selp.b32 %s, %s, %s, %s;", v, v, z, pin)
	didx := b.R(B32)
	dplaneOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", dplaneOff, oh, ow)
	b.I("mad.lo.s32 %s, %s, %s, %s;", didx, plane, dplaneOff, idx)
	aout := b.ElemAddr(out, didx, 4)
	b.I("st.global.f32 [%s], %s;", aout, v)
	b.L(end)
	return b.Build()
}

// f32ToF16Kernel converts n floats to packed f16 values.
func f32ToF16Kernel() string {
	b := NewBuilder("convert_f32_to_f16")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	x := b.LoadPtr(pX)
	y := b.LoadPtr(pY)
	ax := b.ElemAddr(x, idx, 4)
	ay := b.ElemAddr(y, idx, 2)
	v := b.R(F32)
	hreg := b.R(B16)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	b.I("cvt.rn.f16.f32 %s, %s;", hreg, v)
	b.I("st.global.b16 [%s], %s;", ay, hreg)
	b.L(end)
	return b.Build()
}

// f16ToF32Kernel converts n packed f16 values to floats.
func f16ToF32Kernel() string {
	b := NewBuilder("convert_f16_to_f32")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	x := b.LoadPtr(pX)
	y := b.LoadPtr(pY)
	ax := b.ElemAddr(x, idx, 2)
	ay := b.ElemAddr(y, idx, 4)
	hreg := b.R(B16)
	v := b.R(F32)
	b.I("ld.global.b16 %s, [%s];", hreg, ax)
	b.I("cvt.f32.f16 %s, %s;", v, hreg)
	b.I("st.global.f32 [%s], %s;", ay, v)
	b.L(end)
	return b.Build()
}
