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

// transform2D applies the 1-D transform f to every column of the
// row-major matrix x of the given row count, then to every row of the
// result, and returns the product row-major. Each of Winograd's
// transforms is one such pair of passes.
func transform2D(x []string, rows int, f func(a []string) []string) []string {
	cols := len(x) / rows
	var t []string
	for j := 0; j < cols; j++ {
		col := make([]string, rows)
		for i := range col {
			col[i] = x[i*cols+j]
		}
		fc := f(col)
		if t == nil {
			t = make([]string, len(fc)*cols)
		}
		for i, v := range fc {
			t[i*cols+j] = v
		}
	}
	var out []string
	for i := 0; i < len(t); i += cols {
		out = append(out, f(t[i:i+cols])...)
	}
	return out
}

// winogradB is one pass of the input transform V = Bᵀ d B:
// (a0-a2, a1+a2, a2-a1, a1-a3).
func (b *Builder) winogradB(a []string) []string {
	return []string{b.f32Op("sub", a[0], a[2]), b.f32Op("add", a[1], a[2]),
		b.f32Op("sub", a[2], a[1]), b.f32Op("sub", a[1], a[3])}
}

// winogradG returns one pass of the filter transform U = G g Gᵀ:
// (a0, (a0+a1+a2)/2, (a0-a1+a2)/2, a2), halving by the register half.
func (b *Builder) winogradG(half string) func(a []string) []string {
	return func(a []string) []string {
		halfOf := func(op string) string {
			s := b.f32Op(op, a[0], a[1])
			b.I("add.f32 %s, %s, %s;", s, s, a[2])
			return b.f32Op("mul", s, half)
		}
		return []string{a[0], halfOf("add"), halfOf("sub"), a[2]}
	}
}

// winogradA is one pass of the output transform Y = Aᵀ m A:
// (a0+a1+a2, a1-a2-a3).
func (b *Builder) winogradA(a []string) []string {
	t0 := b.f32Op("add", a[0], a[1])
	b.I("add.f32 %s, %s, %s;", t0, t0, a[2])
	t1 := b.f32Op("sub", a[1], a[2])
	b.I("sub.f32 %s, %s, %s;", t1, t1, a[3])
	return []string{t0, t1}
}

// emitLoadBounded loads element (y, x) of the HxW plane at flat offset
// base in ptr into a fresh f32 register, or the zero in register z when
// (y, x) lies outside the plane (the address is clamped to the plane's
// first element so the load itself stays in range).
func emitLoadBounded(b *Builder, ptr, base, y, x, h, w, z string) string {
	pin, _ := b.inBounds(y, h, x, w)
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
func emitLoadPatch4(b *Builder, xB, base, y0, x0, h, w string) []string {
	d := make([]string, 16)
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
func emitLoadFilter3(b *Builder, wB, fbase string) []string {
	g := make([]string, 9)
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
func emitStoreTransformed(b *Builder, base, count, idx string, vals []string) {
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
func emitStoreTile2(b *Builder, yB string, yv []string, ty, tx, oh, ow, outBase, skipHint string) {
	tilePixels(b, ty, tx, func(k int, oy, ox string) {
		pin, ptmp := b.R(Pred), b.R(Pred)
		skip := b.NewLabel(skipHint)
		b.I("setp.ge.u32 %s, %s, %s;", pin, oy, oh)
		b.I("@%s bra %s;", pin, skip)
		b.I("setp.ge.u32 %s, %s, %s;", ptmp, ox, ow)
		b.I("@%s bra %s;", ptmp, skip)
		oi := b.flatIndex(oy, ow, ox)
		b.I("add.u32 %s, %s, %s;", oi, oi, outBase)
		a := b.ElemAddr(yB, oi, 4)
		b.I("st.global.f32 [%s], %s;", a, yv[k])
		b.L(skip)
	})
}

// tilePixels calls body for the four pixels (2ty+i, 2tx+j) of 2x2 output
// tile (ty, tx) in row-major order, k = 2i+j.
func tilePixels(b *Builder, ty, tx string, body func(k int, oy, ox string)) {
	for k := 0; k < 4; k++ {
		oy, ox := b.R(B32), b.R(B32)
		b.I("shl.b32 %s, %s, 1;", oy, ty)
		b.I("add.u32 %s, %s, %d;", oy, oy, k/2)
		b.I("shl.b32 %s, %s, 1;", ox, tx)
		b.I("add.u32 %s, %s, %d;", ox, ox, k%2)
		body(k, oy, ox)
	}
}

// tileItem is one work item of a non-fused Winograd transform: channel
// ch (of chans) of image n, 2x2 output tile (ty, tx); tot counts the work
// items, idx is this thread's, end is the exit label.
type tileItem struct{ end, idx, chans, tot, ch, n, ty, tx string }

// channelTiles is the prologue of the non-fused input and output
// transforms: one thread per (channel, image, tile) with the channel
// outermost, the extents taken from the u32 parameters pCh, pTX, pTY and
// pNImg, and every thread past the last item sent to the exit label.
func channelTiles(b *Builder, pCh, pTX, pTY, pNImg string) (t tileItem) {
	t.end = b.NewLabel("end")
	t.idx = b.GlobalTidX()
	t.chans = b.LoadU32(pCh)
	tx := b.LoadU32(pTX)
	ty := b.LoadU32(pTY)
	nimg := b.LoadU32(pNImg)
	tilesPerImg := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tilesPerImg, tx, ty)
	p := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", p, tilesPerImg, nimg)
	t.tot = b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", t.tot, t.chans, p)
	b.GuardEnd(t.idx, t.tot, t.end)
	var pp, tIdx string
	pp, t.ch = b.remDiv(t.idx, p)
	tIdx, t.n = b.remDiv(pp, tilesPerImg)
	t.ty, t.tx = b.divRem(tIdx, tx)
	return t
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
	acc := make([]string, 16)
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
		v := transform2D(emitLoadPatch4(b, xB, base, y0, x0, h, w), 4, b.winogradB)
		// load 3x3 filter w[kk, cc]
		fbase := b.flatIndex(kk, c, cc)
		b.I("mul.lo.u32 %s, %s, 9;", fbase, fbase)
		u := transform2D(emitLoadFilter3(b, wB, fbase), 3, b.winogradG(b.MovF32(0.5)))
		for i := 0; i < 16; i++ {
			b.I("fma.rn.f32 %s, %s, %s, %s;", acc[i], u[i], v[i], acc[i])
		}
	})

	yv := transform2D(acc, 4, b.winogradA)
	// store 2x2 with bounds
	kohw := b.R(B32)
	ohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)
	b.I("mul.lo.u32 %s, %s, %s;", kohw, k, ohw)
	outBase := b.planeBase(n, kohw, kk, ohw)
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
	u := transform2D(emitLoadFilter3(b, wB, fbase), 3, b.winogradG(b.MovF32(0.5)))
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
	t := channelTiles(b, pC, pTX, pTY, pNImg)
	h := b.LoadU32(pH)
	w := b.LoadU32(pWw)
	pad := b.LoadU32(pPad)
	xB := b.LoadPtr(pX)
	vB := b.LoadPtr(pV)
	hw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", hw, h, w)
	chw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", chw, t.chans, hw)
	base := b.planeBase(t.n, chw, t.ch, hw)
	y0, x0 := emitTileOrigin(b, t.ty, t.tx, pad)
	v := transform2D(emitLoadPatch4(b, xB, base, y0, x0, h, w), 4, b.winogradB)
	emitStoreTransformed(b, vB, t.tot, t.idx, v)
	b.L(t.end)
	return b.Build()
}

// winogradOutputTransform (non-fused stage 4): y tile = Aᵀ m A where
// m[xi] = M[xi, k*P+p]; M is [16][K*P].
func winogradOutputTransform() string {
	b := NewBuilder("winograd_output_transform")
	pM, pY := b.PtrParam("pM"), b.PtrParam("pY")
	pK, pOH, pOW := b.U32Param("pK"), b.U32Param("pOH"), b.U32Param("pOW")
	pTX, pTY, pNImg := b.U32Param("pTilesX"), b.U32Param("pTilesY"), b.U32Param("pNImg")
	t := channelTiles(b, pK, pTX, pTY, pNImg)
	mB := b.LoadPtr(pM)
	yB := b.LoadPtr(pY)
	m := make([]string, 16)
	for xi := range m {
		mi := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", mi, t.tot, xi, t.idx)
		a := b.ElemAddr(mB, mi, 4)
		m[xi] = b.R(F32)
		b.I("ld.global.f32 %s, [%s];", m[xi], a)
	}
	yv := transform2D(m, 4, b.winogradA)
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	ohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ohw, oh, ow)
	kohw := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", kohw, t.chans, ohw)
	outBase := b.planeBase(t.n, kohw, t.ch, ohw)
	emitStoreTile2(b, yB, yv, t.ty, t.tx, oh, ow, outBase, "wo_skip")
	b.L(t.end)
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

	acc := make([]string, 16)
	for i := range acc {
		acc[i] = b.MovF32(0)
	}
	b.loop("WBF_LOOP", "wbf_end", tid, tot, "64", func(pos string) {
		tIdx, n := b.remDiv(pos, tilesPerImg)
		tyy, txx := b.divRem(tIdx, tilesX)
		// input patch of x[n, cc]
		base := b.planeBase(n, chw, cc, hw)
		y0, x0 := emitTileOrigin(b, tyy, txx, pad)
		v := transform2D(emitLoadPatch4(b, xB, base, y0, x0, h, w), 4, b.winogradB)
		// dy 2x2 tile of dy[n, kk] (zeros outside)
		dyBase := b.planeBase(n, kohw, kk, ohw)
		dyv := make([]string, 4)
		z := b.MovF32(0)
		tilePixels(b, tyy, txx, func(k int, oy, ox string) {
			dyv[k] = emitLoadBounded(b, dyB, dyBase, oy, ox, oh, ow, z)
		})
		// Mdy = A dy Aᵀ where A (4x2) = [[1,0],[1,1],[1,-1],[0,-1]]
		mdy := transform2D(dyv, 2, func(a []string) []string {
			return []string{a[0], b.f32Op("add", a[0], a[1]), b.f32Op("sub", a[0], a[1]), b.f32Op("neg", a[1])}
		})
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
	s := make([]string, 16)
	for i := range s {
		a := b.R(B32)
		b.I("add.u32 %s, %s, %d;", a, sbase, i*64*4)
		s[i] = b.R(F32)
		b.I("ld.shared.f32 %s, [%s];", s[i], a)
	}
	// dw = Gᵀ s G, Gᵀ = [[1,.5,.5,0],[0,.5,-.5,0],[0,.5,.5,1]]
	half := b.MovF32(0.5)
	dwv := transform2D(s, 4, func(a []string) []string {
		sum12 := b.f32Op("add", a[1], a[2])
		b.I("mul.f32 %s, %s, %s;", sum12, sum12, half)
		dif12 := b.f32Op("sub", a[1], a[2])
		b.I("mul.f32 %s, %s, %s;", dif12, dif12, half)
		return []string{b.f32Op("add", a[0], sum12), dif12, b.f32Op("add", a[3], sum12)}
	})
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
