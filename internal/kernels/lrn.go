package kernels

// LRN (local response normalisation). LRN is one of the paper's Fig. 7
// kernels and — per §III-C — the layer whose texture-reference
// registration patterns exposed GPGPU-Sim's texture-name bugs: the kernel
// reads its input through a texture reference (lrn_tex), which the host
// side rebinds for every launch.

// LRNTexName is the module-level texref the LRN kernel samples.
const LRNTexName = "lrn_tex"

// lrnWindowLoop emits `for j = lo; j <= hi; j++` over the channel window
// of one pixel, skipping body for j >= c — which drops both the channels
// past the last one and, by unsigned wraparound, those before the first.
func lrnWindowLoop(b *Builder, head, endHint, skipHint, lo, hi, c string, body func(j string)) {
	j := b.R(B32)
	b.I("mov.u32 %s, %s;", j, lo)
	b.L(head)
	pj := b.R(Pred)
	end := b.NewLabel(endHint)
	b.I("setp.gt.u32 %s, %s, %s;", pj, j, hi)
	b.I("@%s bra %s;", pj, end)
	pval := b.R(Pred)
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
	end, idx, ext := b.guardTid(pC, pHW)
	c, hw := ext[0], ext[1]
	pos, cc := b.remDiv(idx, hw)

	win := b.LoadU32(pN)
	half := b.R(B32)
	b.I("shr.u32 %s, %s, 1;", half, win)
	lo := b.R(B32)
	b.I("sub.u32 %s, %s, %s;", lo, cc, half)
	pwrap := b.R(Pred)
	b.I("setp.lt.u32 %s, %s, %s;", pwrap, cc, half)
	b.I("selp.b32 %s, 0, %s, %s;", lo, lo, pwrap) // clamp window start at 0
	hi := b.R(B32)
	b.I("add.u32 %s, %s, %s;", hi, cc, half)

	sum := b.MovF32(0)
	lrnWindowLoop(b, "LRN_LOOP", "lrn_end", "lrn_skip", lo, hi, c, func(j string) {
		ti := b.flatIndex(j, hw, pos)
		v0, v1, v2, v3 := b.R(F32), b.R(F32), b.R(F32), b.R(F32)
		b.I("tex.1d.v4.f32.s32 {%s, %s, %s, %s}, [%s, {%s}];", v0, v1, v2, v3, LRNTexName, ti)
		b.I("fma.rn.f32 %s, %s, %s, %s;", sum, v0, v0, sum)
	})

	kc := b.LoadF32(pK)
	alpha := b.LoadF32(pAlpha)
	beta := b.LoadF32(pBeta)
	nf := b.R(F32)
	b.I("cvt.rn.f32.u32 %s, %s;", nf, win)
	scaled := b.R(F32)
	b.I("div.rn.f32 %s, %s, %s;", scaled, alpha, nf)
	den := b.R(F32)
	b.I("fma.rn.f32 %s, %s, %s, %s;", den, scaled, sum, kc)
	// den^beta = ex2(beta * lg2(den))
	lg, e := b.R(F32), b.R(F32)
	b.I("lg2.approx.f32 %s, %s;", lg, den)
	b.I("mul.f32 %s, %s, %s;", e, lg, beta)
	powv := b.R(F32)
	b.I("ex2.approx.f32 %s, %s;", powv, e)

	x0, x1, x2, x3 := b.R(F32), b.R(F32), b.R(F32), b.R(F32)
	b.I("tex.1d.v4.f32.s32 {%s, %s, %s, %s}, [%s, {%s}];", x0, x1, x2, x3, LRNTexName, idx)
	res := b.R(F32)
	b.I("div.rn.f32 %s, %s, %s;", res, x0, powv)
	ay := b.elemAddrs(idx, pY)[0]
	b.I("st.global.f32 [%s], %s;", ay, res)
	b.L(end)
	return b.Build()
}
