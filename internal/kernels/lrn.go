package kernels

// LRN (local response normalisation) kernels. LRN is one of the paper's
// Fig. 7 kernels and — per §III-C — the layer whose texture-reference
// registration patterns exposed GPGPU-Sim's texture-name bugs: the forward
// kernel reads its input through a texture reference (lrn_tex), which the
// host side rebinds for every launch.

// LRNTexName is the module-level texref the LRN forward kernel samples.
const LRNTexName = "lrn_tex"

// lrnWindowLoop emits `for j = lo; j <= hi; j++` over the channel window
// of one pixel, skipping body for j >= c — which drops both the channels
// past the last one and, by unsigned wraparound, those before the first.
func lrnWindowLoop(b *Builder, head, endHint, skipHint, lo, hi, c string, body func(j string)) {
	j := b.R("r")
	b.I("mov.u32 %s, %s;", j, lo)
	b.L(head)
	pj := b.R("p")
	end := b.NewLabel(endHint)
	b.I("setp.gt.u32 %s, %s, %s;", pj, j, hi)
	b.I("@%s bra %s;", pj, end)
	pval := b.R("p")
	skip := b.NewLabel(skipHint)
	b.I("setp.ge.u32 %s, %s, %s;", pval, j, c)
	b.I("@%s bra %s;", pval, skip)
	body(j)
	b.L(skip)
	b.I("add.u32 %s, %s, 1;", j, j)
	b.I("bra %s;", head)
	b.L(end)
}

// lrnForward computes cross-channel LRN over x[C,H,W] (one image):
//
//	y[c,i] = x[c,i] / (k + alpha/n * sum_{c' in window} x[c',i]^2)^beta
//
// The input is fetched through the lrn_tex texture reference; pow is
// synthesised from lg2/ex2 as GPU code generators do.
func lrnForward() string {
	b := NewBuilder("lrn_forward")
	pY := b.PtrParam("pY")
	pC, pHW := b.U32Param("pC"), b.U32Param("pHW")
	pN, pK := b.U32Param("pWin"), b.F32Param("pK")
	pAlpha, pBeta := b.F32Param("pAlpha"), b.F32Param("pBeta")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	hw := b.LoadU32(pHW)
	tot := b.R("r")
	b.I("mul.lo.u32 %s, %s, %s;", tot, c, hw)
	b.GuardEnd(idx, tot, end)
	pos, cc := b.remDiv(idx, hw)

	win := b.LoadU32(pN)
	half := b.R("r")
	b.I("shr.u32 %s, %s, 1;", half, win)
	lo := b.R("r")
	b.I("sub.u32 %s, %s, %s;", lo, cc, half)
	pwrap := b.R("p")
	b.I("setp.lt.u32 %s, %s, %s;", pwrap, cc, half)
	b.I("selp.b32 %s, 0, %s, %s;", lo, lo, pwrap) // clamp window start at 0
	hi := b.R("r")
	b.I("add.u32 %s, %s, %s;", hi, cc, half)

	sum := b.MovF32(0)
	lrnWindowLoop(b, "LRN_LOOP", "lrn_end", "lrn_skip", lo, hi, c, func(j string) {
		ti := b.flatIndex(j, hw, pos)
		v0, v1, v2, v3 := b.R("f"), b.R("f"), b.R("f"), b.R("f")
		b.I("tex.1d.v4.f32.s32 {%s, %s, %s, %s}, [%s, {%s}];", v0, v1, v2, v3, LRNTexName, ti)
		b.I("fma.rn.f32 %s, %s, %s, %s;", sum, v0, v0, sum)
	})

	kc := b.LoadF32(pK)
	alpha := b.LoadF32(pAlpha)
	beta := b.LoadF32(pBeta)
	nf := b.R("f")
	b.I("cvt.rn.f32.u32 %s, %s;", nf, win)
	scaled := b.R("f")
	b.I("div.rn.f32 %s, %s, %s;", scaled, alpha, nf)
	den := b.R("f")
	b.I("fma.rn.f32 %s, %s, %s, %s;", den, scaled, sum, kc)
	// den^beta = ex2(beta * lg2(den))
	lg, e := b.R("f"), b.R("f")
	b.I("lg2.approx.f32 %s, %s;", lg, den)
	b.I("mul.f32 %s, %s, %s;", e, lg, beta)
	powv := b.R("f")
	b.I("ex2.approx.f32 %s, %s;", powv, e)

	x0, x1, x2, x3 := b.R("f"), b.R("f"), b.R("f"), b.R("f")
	b.I("tex.1d.v4.f32.s32 {%s, %s, %s, %s}, [%s, {%s}];", x0, x1, x2, x3, LRNTexName, idx)
	res := b.R("f")
	b.I("div.rn.f32 %s, %s, %s;", res, x0, powv)
	y := b.LoadPtr(pY)
	ay := b.ElemAddr(y, idx, 4)
	b.I("st.global.f32 [%s], %s;", ay, res)
	b.L(end)
	return b.Build()
}

// lrnBackward computes the LRN input gradient without textures (plain
// loads), using the forward activations:
//
//	dx[c,i] = dy[c,i]*den(c)^-beta -
//	          2*alpha*beta/n * x[c,i'] * sum_{c'} dy[c',i]*y[c',i]/den(c')
//
// For tractability we use the widely-used approximation that recomputes
// den per channel in the window.
func lrnBackward() string {
	b := NewBuilder("lrn_backward")
	pX, pY, pDY, pDX := b.PtrParam("pX"), b.PtrParam("pY"), b.PtrParam("pDY"), b.PtrParam("pDX")
	pC, pHW := b.U32Param("pC"), b.U32Param("pHW")
	pN, pK := b.U32Param("pWin"), b.F32Param("pK")
	pAlpha, pBeta := b.F32Param("pAlpha"), b.F32Param("pBeta")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	hw := b.LoadU32(pHW)
	tot := b.R("r")
	b.I("mul.lo.u32 %s, %s, %s;", tot, c, hw)
	b.GuardEnd(idx, tot, end)
	pos, cc := b.remDiv(idx, hw)

	win := b.LoadU32(pN)
	half := b.R("r")
	b.I("shr.u32 %s, %s, 1;", half, win)
	xB, yB, dyB, dxB := b.LoadPtr(pX), b.LoadPtr(pY), b.LoadPtr(pDY), b.LoadPtr(pDX)
	kc := b.LoadF32(pK)
	alpha := b.LoadF32(pAlpha)
	beta := b.LoadF32(pBeta)
	nf := b.R("f")
	b.I("cvt.rn.f32.u32 %s, %s;", nf, win)
	aOverN := b.R("f")
	b.I("div.rn.f32 %s, %s, %s;", aOverN, alpha, nf)

	// denominator for this channel: k + alpha/n * sum x^2 over window
	sum := b.MovF32(0)
	lo, hi := b.R("r"), b.R("r")
	b.I("sub.u32 %s, %s, %s;", lo, cc, half)
	pwrap := b.R("p")
	b.I("setp.lt.u32 %s, %s, %s;", pwrap, cc, half)
	b.I("selp.b32 %s, 0, %s, %s;", lo, lo, pwrap) // clamp window start at 0
	b.I("add.u32 %s, %s, %s;", hi, cc, half)
	lrnWindowLoop(b, "LB_DEN", "lb_den_end", "lb_sk1", lo, hi, c, func(j string) {
		axj := b.ElemAddr(xB, b.flatIndex(j, hw, pos), 4)
		vx := b.R("f")
		b.I("ld.global.f32 %s, [%s];", vx, axj)
		b.I("fma.rn.f32 %s, %s, %s, %s;", sum, vx, vx, sum)
	})
	den := b.R("f")
	b.I("fma.rn.f32 %s, %s, %s, %s;", den, aOverN, sum, kc)
	lg, e, powv := b.R("f"), b.R("f"), b.R("f")
	b.I("lg2.approx.f32 %s, %s;", lg, den)
	b.I("mul.f32 %s, %s, %s;", e, lg, beta)
	b.I("ex2.approx.f32 %s, %s;", powv, e)

	// cross term: sum over window of dy*y/den(c') ~ dy*y/den (approx)
	cross := b.MovF32(0)
	lrnWindowLoop(b, "LB_CROSS", "lb_cross_end", "lb_sk2", lo, hi, c, func(j string) {
		ti := b.flatIndex(j, hw, pos)
		ady := b.ElemAddr(dyB, ti, 4)
		ayj := b.ElemAddr(yB, ti, 4)
		vdy, vy, t := b.R("f"), b.R("f"), b.R("f")
		b.I("ld.global.f32 %s, [%s];", vdy, ady)
		b.I("ld.global.f32 %s, [%s];", vy, ayj)
		b.I("mul.f32 %s, %s, %s;", t, vdy, vy)
		b.I("div.rn.f32 %s, %s, %s;", t, t, den)
		b.I("add.f32 %s, %s, %s;", cross, cross, t)
	})

	adyc := b.ElemAddr(dyB, idx, 4)
	axc := b.ElemAddr(xB, idx, 4)
	vdyc, vxc := b.R("f"), b.R("f")
	b.I("ld.global.f32 %s, [%s];", vdyc, adyc)
	b.I("ld.global.f32 %s, [%s];", vxc, axc)
	direct := b.R("f")
	b.I("div.rn.f32 %s, %s, %s;", direct, vdyc, powv)
	coef := b.R("f")
	two := b.MovF32(2)
	b.I("mul.f32 %s, %s, %s;", coef, aOverN, beta)
	b.I("mul.f32 %s, %s, %s;", coef, coef, two)
	corr := b.R("f")
	b.I("mul.f32 %s, %s, %s;", corr, coef, vxc)
	b.I("mul.f32 %s, %s, %s;", corr, corr, cross)
	res := b.R("f")
	b.I("sub.f32 %s, %s, %s;", res, direct, corr)
	adx := b.ElemAddr(dxB, idx, 4)
	b.I("st.global.f32 [%s], %s;", adx, res)
	b.L(end)
	return b.Build()
}
