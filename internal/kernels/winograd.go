package kernels

// Winograd F(2x2, 3x3) convolution kernels, fused ("Winograd" in the
// paper's Fig. 7) and non-fused (the four-stage pipeline the paper's
// conv_sample study calls Winograd Nonfused: filter transform, input
// transform, 16-way batched GEMM, output transform), plus the
// backward-filter kernel whose tiny grid reproduces the load imbalance of
// Figs. 20–21.
//
// Transforms (correlation convention, as in CNNs):
//
//	V = Bᵀ d B   (input 4x4)
//	U = G g Gᵀ   (filter 3x3 -> 4x4)
//	Y = Aᵀ (U ⊙ V) A  (output 2x2)

// emitInputTransform emits V = Bᵀ d B for 16 f32 registers (row-major).
func emitInputTransform(b *Builder, d [16]string) [16]string {
	var t, v [16]string
	// t = Bᵀ d : rows combine
	for j := 0; j < 4; j++ {
		t[0*4+j] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", t[0*4+j], d[0*4+j], d[2*4+j])
		t[1*4+j] = b.R(F32)
		b.I("add.f32 %s, %s, %s;", t[1*4+j], d[1*4+j], d[2*4+j])
		t[2*4+j] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", t[2*4+j], d[2*4+j], d[1*4+j])
		t[3*4+j] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", t[3*4+j], d[1*4+j], d[3*4+j])
	}
	// v = t B : columns combine
	for i := 0; i < 4; i++ {
		v[i*4+0] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", v[i*4+0], t[i*4+0], t[i*4+2])
		v[i*4+1] = b.R(F32)
		b.I("add.f32 %s, %s, %s;", v[i*4+1], t[i*4+1], t[i*4+2])
		v[i*4+2] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", v[i*4+2], t[i*4+2], t[i*4+1])
		v[i*4+3] = b.R(F32)
		b.I("sub.f32 %s, %s, %s;", v[i*4+3], t[i*4+1], t[i*4+3])
	}
	return v
}

// emitFilterTransform emits U = G g Gᵀ for a 3x3 filter in registers.
func emitFilterTransform(b *Builder, g [9]string) [16]string {
	half := b.MovF32(0.5)
	var t [12]string // 4x3
	for j := 0; j < 3; j++ {
		t[0*3+j] = g[0*3+j]
		s1 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", s1, g[0*3+j], g[1*3+j])
		b.I("add.f32 %s, %s, %s;", s1, s1, g[2*3+j])
		t1 := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", t1, s1, half)
		t[1*3+j] = t1
		s2 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", s2, g[0*3+j], g[1*3+j])
		b.I("add.f32 %s, %s, %s;", s2, s2, g[2*3+j])
		t2 := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", t2, s2, half)
		t[2*3+j] = t2
		t[3*3+j] = g[2*3+j]
	}
	var u [16]string
	for i := 0; i < 4; i++ {
		u[i*4+0] = t[i*3+0]
		s1 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", s1, t[i*3+0], t[i*3+1])
		b.I("add.f32 %s, %s, %s;", s1, s1, t[i*3+2])
		u1 := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", u1, s1, half)
		u[i*4+1] = u1
		s2 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", s2, t[i*3+0], t[i*3+1])
		b.I("add.f32 %s, %s, %s;", s2, s2, t[i*3+2])
		u2 := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", u2, s2, half)
		u[i*4+2] = u2
		u[i*4+3] = t[i*3+2]
	}
	return u
}

// emitOutputTransform emits Y = Aᵀ m A (2x2 result).
func emitOutputTransform(b *Builder, m [16]string) [4]string {
	var t [8]string // 2x4
	for j := 0; j < 4; j++ {
		t0 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", t0, m[0*4+j], m[1*4+j])
		b.I("add.f32 %s, %s, %s;", t0, t0, m[2*4+j])
		t[0*4+j] = t0
		t1 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", t1, m[1*4+j], m[2*4+j])
		b.I("sub.f32 %s, %s, %s;", t1, t1, m[3*4+j])
		t[1*4+j] = t1
	}
	var y [4]string
	for i := 0; i < 2; i++ {
		y0 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", y0, t[i*4+0], t[i*4+1])
		b.I("add.f32 %s, %s, %s;", y0, y0, t[i*4+2])
		y[i*2+0] = y0
		y1 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", y1, t[i*4+1], t[i*4+2])
		b.I("sub.f32 %s, %s, %s;", y1, y1, t[i*4+3])
		y[i*2+1] = y1
	}
	return y
}

// emitLoadBounded loads element (y, x) of the HxW plane at flat offset
// base in ptr into a fresh f32 register, or the zero in register z when
// (y, x) lies outside the plane (the address is clamped to the plane's
// first element so the load itself stays in range).
func emitLoadBounded(b *Builder, ptr, base, y, x, h, w, z string) string {
	pin, ptmp := b.R(Pred), b.R(Pred)
	b.I("setp.lt.u32 %s, %s, %s;", pin, y, h)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, x, w)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)
	si := b.flatIndex(y, w, x)
	b.I("add.u32 %s, %s, %s;", si, si, base)
	clamped := b.R(B32)
	b.I("selp.b32 %s, %s, %s, %s;", clamped, si, base, pin)
	a := b.ElemAddr(ptr, clamped, 4)
	v := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, a)
	vv := b.R(F32)
	b.I("selp.b32 %s, %s, %s, %s;", vv, v, z, pin)
	return vv
}

// emitLoadPatch4 loads a 4x4 input patch at (y0, x0) of plane base
// (bounds-checked, zeros outside) into 16 fresh f32 registers.
func emitLoadPatch4(b *Builder, xB, base, y0, x0, h, w string) [16]string {
	var d [16]string
	z := b.MovF32(0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			iy, ix := b.R(B32), b.R(B32)
			b.I("add.u32 %s, %s, %d;", iy, y0, i)
			b.I("add.u32 %s, %s, %d;", ix, x0, j)
			d[i*4+j] = emitLoadBounded(b, xB, base, iy, ix, h, w, z)
		}
	}
	return d
}

// emitLoadFilter3 loads the 3x3 filter whose first element has flat index
// fbase in wB into 9 fresh f32 registers.
func emitLoadFilter3(b *Builder, wB, fbase string) [9]string {
	var g [9]string
	for i := range g {
		fi := b.R(B32)
		b.I("add.u32 %s, %s, %d;", fi, fbase, i)
		a := b.ElemAddr(wB, fi, 4)
		g[i] = b.R(F32)
		b.I("ld.global.f32 %s, [%s];", g[i], a)
	}
	return g
}

// emitTileCounts emits the number of 2x2 output tiles down and across an
// OHxOW plane: (oh+1)/2 and (ow+1)/2.
func emitTileCounts(b *Builder, oh, ow string) (tilesY, tilesX string) {
	tilesY, tilesX = b.R(B32), b.R(B32)
	b.I("add.u32 %s, %s, 1;", tilesY, oh)
	b.I("shr.u32 %s, %s, 1;", tilesY, tilesY)
	b.I("add.u32 %s, %s, 1;", tilesX, ow)
	b.I("shr.u32 %s, %s, 1;", tilesX, tilesX)
	return tilesY, tilesX
}

// emitTileOrigin emits the input-patch origin (2*ty - pad, 2*tx - pad)
// of output tile (ty, tx).
func emitTileOrigin(b *Builder, ty, tx, pad string) (y0, x0 string) {
	y0, x0 = b.R(B32), b.R(B32)
	b.I("shl.b32 %s, %s, 1;", y0, ty)
	b.I("sub.u32 %s, %s, %s;", y0, y0, pad)
	b.I("shl.b32 %s, %s, 1;", x0, tx)
	b.I("sub.u32 %s, %s, %s;", x0, x0, pad)
	return y0, x0
}

// emitStoreTransformed stores the 16 transform-domain values of work item
// idx into the [16][count] matrix at base: element xi goes to xi*count+idx.
func emitStoreTransformed(b *Builder, base, count, idx string, vals [16]string) {
	for xi, v := range vals {
		ei := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", ei, count, xi, idx)
		a := b.ElemAddr(base, ei, 4)
		b.I("st.global.f32 [%s], %s;", a, v)
	}
}

// emitStoreTile2 stores the 2x2 output tile yv of tile (ty, tx) into the
// OHxOW plane at flat offset outBase, skipping the pixels a ragged edge
// leaves outside it. skipHint names the generated skip labels.
func emitStoreTile2(b *Builder, yB string, yv [4]string, ty, tx, oh, ow, outBase, skipHint string) {
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			oy, oxr := b.R(B32), b.R(B32)
			b.I("shl.b32 %s, %s, 1;", oy, ty)
			b.I("add.u32 %s, %s, %d;", oy, oy, i)
			b.I("shl.b32 %s, %s, 1;", oxr, tx)
			b.I("add.u32 %s, %s, %d;", oxr, oxr, j)
			pin, ptmp := b.R(Pred), b.R(Pred)
			skip := b.NewLabel(skipHint)
			b.I("setp.ge.u32 %s, %s, %s;", pin, oy, oh)
			b.I("@%s bra %s;", pin, skip)
			b.I("setp.ge.u32 %s, %s, %s;", ptmp, oxr, ow)
			b.I("@%s bra %s;", ptmp, skip)
			oi := b.flatIndex(oy, ow, oxr)
			b.I("add.u32 %s, %s, %s;", oi, oi, outBase)
			a := b.ElemAddr(yB, oi, 4)
			b.I("st.global.f32 [%s], %s;", a, yv[i*2+j])
			b.L(skip)
		}
	}
}

// winogradFused is the single-kernel F(2x2,3x3) convolution ("Winograd" in
// Fig. 7): one thread per (k, output tile) of image n = ctaid.y; filters
// are transformed on the fly.
func winogradFused() string {
	b := NewBuilder("winograd_fused_2x2_3x3")
	pX, pW, pY := b.PtrParam("pX"), b.PtrParam("pW"), b.PtrParam("pY")
	pC, pH, pWw := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pWidth")
	pK, pOH, pOW := b.U32Param("pK"), b.U32Param("pOH"), b.U32Param("pOW")
	pPad := b.U32Param("pPad")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	k := b.LoadU32(pK)
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	tilesY, tilesX := emitTileCounts(b, oh, ow)
	tiles := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tiles, tilesY, tilesX)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, k, tiles)
	b.GuardEnd(idx, tot, end)
	tileIdx, kk := b.remDiv(idx, tiles)
	ty, tx := b.divRem(tileIdx, tilesX)
	n := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", n)

	c := b.LoadU32(pC)
	h := b.LoadU32(pH)
	w := b.LoadU32(pWw)
	pad := b.LoadU32(pPad)
	xB := b.LoadPtr(pX)
	wB := b.LoadPtr(pW)
	yB := b.LoadPtr(pY)

	// accumulators
	var acc [16]string
	for i := range acc {
		acc[i] = b.MovF32(0)
	}
	y0, x0 := emitTileOrigin(b, ty, tx, pad)
	hw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", hw, h, w)
	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, hw)
	imgOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", imgOff, n, chw)

	b.loop("WF_C", "wf_c_end", "0", c, "1", func(cc string) {
		base := b.flatIndex(cc, hw, imgOff)
		d := emitLoadPatch4(b, xB, base, y0, x0, h, w)
		v := emitInputTransform(b, d)
		// load 3x3 filter w[kk, cc]
		fbase := b.flatIndex(kk, c, cc)
		b.I("mul.lo.u32 %s, %s, 9;", fbase, fbase)
		u := emitFilterTransform(b, emitLoadFilter3(b, wB, fbase))
		for i := 0; i < 16; i++ {
			b.I("fma.rn.f32 %s, %s, %s, %s;", acc[i], u[i], v[i], acc[i])
		}
	})

	yv := emitOutputTransform(b, acc)
	// store 2x2 with bounds
	kohw := b.R(B32)
	ohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)
	b.I("mul.lo.u32 %s, %s, %s;", kohw, k, ohw)
	outBase := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", outBase, n, kohw)
	b.I("mad.lo.s32 %s, %s, %s, %s;", outBase, kk, ohw, outBase)
	emitStoreTile2(b, yB, yv, ty, tx, oh, ow, outBase, "wf_skip")
	b.L(end)
	return b.Build()
}

// winogradFilterTransform (non-fused stage 1): U[xi, k*C+c] = (G g Gᵀ)[xi]
// for one thread per (k, c). Layout: U is [16][K*C].
func winogradFilterTransform() string {
	b := NewBuilder("winograd_filter_transform")
	pW, pU := b.PtrParam("pW"), b.PtrParam("pU")
	pKC := b.U32Param("pKC")
	end, idx, ext := b.guardTid(pKC)
	kc := ext[0]
	wB := b.LoadPtr(pW)
	uB := b.LoadPtr(pU)
	fbase := b.R(B32)
	b.I("mul.lo.u32 %s, %s, 9;", fbase, idx)
	u := emitFilterTransform(b, emitLoadFilter3(b, wB, fbase))
	emitStoreTransformed(b, uB, kc, idx, u)
	b.L(end)
	return b.Build()
}

// winogradInputTransform (non-fused stage 2): V[xi, c*P+p] = (Bᵀ d B)[xi]
// for one thread per (c, p) where p enumerates (n, ty, tx) tiles.
// Layout: V is [16][C*P].
func winogradInputTransform() string {
	b := NewBuilder("winograd_input_transform")
	pX, pV := b.PtrParam("pX"), b.PtrParam("pV")
	pC, pH, pWw := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pWidth")
	pTX, pTY := b.U32Param("pTilesX"), b.U32Param("pTilesY")
	pPad, pNImg := b.U32Param("pPad"), b.U32Param("pNImg")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	tx := b.LoadU32(pTX)
	ty := b.LoadU32(pTY)
	nimg := b.LoadU32(pNImg)
	tilesPerImg := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tilesPerImg, tx, ty)
	p := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", p, tilesPerImg, nimg)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, c, p)
	b.GuardEnd(idx, tot, end)
	// idx -> (cc, pp); pp -> (n, tyy, txx)
	pp, cc := b.remDiv(idx, p)
	tIdx, n := b.remDiv(pp, tilesPerImg)
	tyy, txx := b.divRem(tIdx, tx)

	h := b.LoadU32(pH)
	w := b.LoadU32(pWw)
	pad := b.LoadU32(pPad)
	xB := b.LoadPtr(pX)
	vB := b.LoadPtr(pV)
	hw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", hw, h, w)
	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, hw)
	base := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", base, n, chw)
	b.I("mad.lo.s32 %s, %s, %s, %s;", base, cc, hw, base)
	y0, x0 := emitTileOrigin(b, tyy, txx, pad)
	d := emitLoadPatch4(b, xB, base, y0, x0, h, w)
	v := emitInputTransform(b, d)
	emitStoreTransformed(b, vB, tot, idx, v)
	b.L(end)
	return b.Build()
}

// winogradOutputTransform (non-fused stage 4): y tile = Aᵀ m A where
// m[xi] = M[xi, k*P+p]; M is [16][K*P].
func winogradOutputTransform() string {
	b := NewBuilder("winograd_output_transform")
	pM, pY := b.PtrParam("pM"), b.PtrParam("pY")
	pK, pOH, pOW := b.U32Param("pK"), b.U32Param("pOH"), b.U32Param("pOW")
	pTX, pTY, pNImg := b.U32Param("pTilesX"), b.U32Param("pTilesY"), b.U32Param("pNImg")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	k := b.LoadU32(pK)
	tx := b.LoadU32(pTX)
	ty := b.LoadU32(pTY)
	nimg := b.LoadU32(pNImg)
	tilesPerImg := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tilesPerImg, tx, ty)
	p := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", p, tilesPerImg, nimg)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, k, p)
	b.GuardEnd(idx, tot, end)
	pp, kk := b.remDiv(idx, p)
	tIdx, n := b.remDiv(pp, tilesPerImg)
	tyy, txx := b.divRem(tIdx, tx)

	mB := b.LoadPtr(pM)
	yB := b.LoadPtr(pY)
	var m [16]string
	for xi := 0; xi < 16; xi++ {
		mi := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", mi, tot, xi, idx)
		a := b.ElemAddr(mB, mi, 4)
		mv := b.R(F32)
		b.I("ld.global.f32 %s, [%s];", mv, a)
		m[xi] = mv
	}
	yv := emitOutputTransform(b, m)
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	ohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)
	kohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", kohw, k, ohw)
	outBase := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", outBase, n, kohw)
	b.I("mad.lo.s32 %s, %s, %s, %s;", outBase, kk, ohw, outBase)
	emitStoreTile2(b, yB, yv, tyy, txx, oh, ow, outBase, "wo_skip")
	b.L(end)
	return b.Build()
}

// winogradBwdFilter computes dW[k,c] = Gᵀ [ Σ_tiles (Bᵀ d B) ⊙ (A dy Aᵀ) ] G.
// One 64-thread block per (k, c); threads stride over tiles and reduce the
// 16 transform-domain accumulators in shared memory. The grid has only K*C
// blocks, which is what starves most SMs in the paper's Figs. 20–21.
func winogradBwdFilter() string {
	b := NewBuilder("winograd_bwd_filter")
	pX, pDY, pDW := b.PtrParam("pX"), b.PtrParam("pDY"), b.PtrParam("pDW")
	pC, pH, pWw := b.U32Param("pC"), b.U32Param("pH"), b.U32Param("pWidth")
	pK, pOH, pOW := b.U32Param("pK"), b.U32Param("pOH"), b.U32Param("pOW")
	pPad, pNImg := b.U32Param("pPad"), b.U32Param("pNImg")
	sacc := b.Shared("wacc", 64*16*4, 4)

	tid := b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", tid)
	fid := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", fid)
	c := b.LoadU32(pC)
	k := b.LoadU32(pK)
	cc, kk := b.remDiv(fid, c)

	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	tilesY, tilesX := emitTileCounts(b, oh, ow)
	nimg := b.LoadU32(pNImg)
	tilesPerImg := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tilesPerImg, tilesY, tilesX)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tilesPerImg, nimg)

	h := b.LoadU32(pH)
	w := b.LoadU32(pWw)
	pad := b.LoadU32(pPad)
	xB := b.LoadPtr(pX)
	dyB := b.LoadPtr(pDY)
	dwB := b.LoadPtr(pDW)
	hw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", hw, h, w)
	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, c, hw)
	ohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)
	kohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", kohw, k, ohw)

	var acc [16]string
	for i := range acc {
		acc[i] = b.MovF32(0)
	}
	b.loop("WBF_LOOP", "wbf_end", tid, tot, "64", func(pos string) {
		tIdx, n := b.remDiv(pos, tilesPerImg)
		tyy, txx := b.divRem(tIdx, tilesX)
		// input patch of x[n, cc]
		base := b.R(B32)
		b.I("mul.lo.u32 %s, %s, %s;", base, n, chw)
		b.I("mad.lo.s32 %s, %s, %s, %s;", base, cc, hw, base)
		y0, x0 := emitTileOrigin(b, tyy, txx, pad)
		d := emitLoadPatch4(b, xB, base, y0, x0, h, w)
		v := emitInputTransform(b, d)
		// dy 2x2 tile of dy[n, kk] (zeros outside)
		dyBase := b.R(B32)
		b.I("mul.lo.u32 %s, %s, %s;", dyBase, n, kohw)
		b.I("mad.lo.s32 %s, %s, %s, %s;", dyBase, kk, ohw, dyBase)
		var dyv [4]string
		z := b.MovF32(0)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				oy, oxr := b.R(B32), b.R(B32)
				b.I("shl.b32 %s, %s, 1;", oy, tyy)
				b.I("add.u32 %s, %s, %d;", oy, oy, i)
				b.I("shl.b32 %s, %s, 1;", oxr, txx)
				b.I("add.u32 %s, %s, %d;", oxr, oxr, j)
				dyv[i*2+j] = emitLoadBounded(b, dyB, dyBase, oy, oxr, oh, ow, z)
			}
		}
		// Mdy = A dy Aᵀ where A (4x2) = [[1,0],[1,1],[1,-1],[0,-1]]
		var trows [8]string // 4x2: A*dy
		for j := 0; j < 2; j++ {
			t0 := dyv[0*2+j]
			t1 := b.R(F32)
			b.I("add.f32 %s, %s, %s;", t1, dyv[0*2+j], dyv[1*2+j])
			t2 := b.R(F32)
			b.I("sub.f32 %s, %s, %s;", t2, dyv[0*2+j], dyv[1*2+j])
			t3 := b.R(F32)
			b.I("neg.f32 %s, %s;", t3, dyv[1*2+j])
			trows[0*2+j] = t0
			trows[1*2+j] = t1
			trows[2*2+j] = t2
			trows[3*2+j] = t3
		}
		var mdy [16]string
		for i := 0; i < 4; i++ {
			m0 := trows[i*2+0]
			m1 := b.R(F32)
			b.I("add.f32 %s, %s, %s;", m1, trows[i*2+0], trows[i*2+1])
			m2 := b.R(F32)
			b.I("sub.f32 %s, %s, %s;", m2, trows[i*2+0], trows[i*2+1])
			m3 := b.R(F32)
			b.I("neg.f32 %s, %s;", m3, trows[i*2+1])
			mdy[i*4+0] = m0
			mdy[i*4+1] = m1
			mdy[i*4+2] = m2
			mdy[i*4+3] = m3
		}
		for i := 0; i < 16; i++ {
			b.I("fma.rn.f32 %s, %s, %s, %s;", acc[i], v[i], mdy[i], acc[i])
		}
	})

	// reduce 16 accumulators across the 64 threads via shared memory
	sbase := b.R(B32)
	b.I("mov.u32 %s, %s;", sbase, sacc)
	for i := 0; i < 16; i++ {
		slot := b.R(B32)
		b.I("mad.lo.s32 %s, %s, 4, %s;", slot, tid, sbase)
		b.I("add.u32 %s, %s, %d;", slot, slot, i*64*4)
		b.I("st.shared.f32 [%s], %s;", slot, acc[i])
	}
	b.I("bar.sync 0;")
	step := b.R(B32)
	b.I("mov.u32 %s, 32;", step)
	rl := b.L("WBF_RED")
	pz := b.R(Pred)
	rend := b.NewLabel("wbf_red_end")
	b.I("setp.eq.u32 %s, %s, 0;", pz, step)
	b.I("@%s bra %s;", pz, rend)
	pact := b.R(Pred)
	skipR := b.NewLabel("wbf_skip")
	b.I("setp.ge.u32 %s, %s, %s;", pact, tid, step)
	b.I("@%s bra %s;", pact, skipR)
	for i := 0; i < 16; i++ {
		mine, other := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, 4, %s;", mine, tid, sbase)
		b.I("add.u32 %s, %s, %d;", mine, mine, i*64*4)
		stepOff := b.R(B32)
		b.I("shl.b32 %s, %s, 2;", stepOff, step)
		b.I("add.u32 %s, %s, %s;", other, mine, stepOff)
		va, vb := b.R(F32), b.R(F32)
		b.I("ld.shared.f32 %s, [%s];", va, mine)
		b.I("ld.shared.f32 %s, [%s];", vb, other)
		b.I("add.f32 %s, %s, %s;", va, va, vb)
		b.I("st.shared.f32 [%s], %s;", mine, va)
	}
	b.L(skipR)
	b.I("bar.sync 0;")
	b.I("shr.u32 %s, %s, 1;", step, step)
	b.I("bra %s;", rl)
	b.L(rend)

	// thread 0 applies Gᵀ S G and writes the 3x3 filter gradient
	p0 := b.R(Pred)
	done := b.NewLabel("wbf_done")
	b.I("setp.ne.u32 %s, %s, 0;", p0, tid)
	b.I("@%s bra %s;", p0, done)
	var s [16]string
	for i := 0; i < 16; i++ {
		a := b.R(B32)
		b.I("add.u32 %s, %s, %d;", a, sbase, i*64*4)
		sv := b.R(F32)
		b.I("ld.shared.f32 %s, [%s];", sv, a)
		s[i] = sv
	}
	// t = Gᵀ s : 3x4, Gᵀ = [[1,.5,.5,0],[0,.5,-.5,0],[0,.5,.5,1]]
	half := b.MovF32(0.5)
	var tg [12]string
	for j := 0; j < 4; j++ {
		sum12 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", sum12, s[1*4+j], s[2*4+j])
		b.I("mul.f32 %s, %s, %s;", sum12, sum12, half)
		dif12 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", dif12, s[1*4+j], s[2*4+j])
		b.I("mul.f32 %s, %s, %s;", dif12, dif12, half)
		t0 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", t0, s[0*4+j], sum12)
		t2 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", t2, s[3*4+j], sum12)
		tg[0*4+j] = t0
		tg[1*4+j] = dif12
		tg[2*4+j] = t2
	}
	// dw = t G : 3x3
	var dwv [9]string
	for i := 0; i < 3; i++ {
		sum12 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", sum12, tg[i*4+1], tg[i*4+2])
		b.I("mul.f32 %s, %s, %s;", sum12, sum12, half)
		dif12 := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", dif12, tg[i*4+1], tg[i*4+2])
		b.I("mul.f32 %s, %s, %s;", dif12, dif12, half)
		d0 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", d0, tg[i*4+0], sum12)
		d2 := b.R(F32)
		b.I("add.f32 %s, %s, %s;", d2, tg[i*4+3], sum12)
		dwv[i*3+0] = d0
		dwv[i*3+1] = dif12
		dwv[i*3+2] = d2
	}
	outBase := b.R(B32)
	b.I("mul.lo.u32 %s, %s, 9;", outBase, fid)
	for i := 0; i < 9; i++ {
		oi := b.R(B32)
		b.I("add.u32 %s, %s, %d;", oi, outBase, i)
		a := b.ElemAddr(dwB, oi, 4)
		b.I("st.global.f32 [%s], %s;", a, dwv[i])
	}
	b.L(done)
	return b.Build()
}
