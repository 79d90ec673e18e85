package kernels

import (
	"math"
	"strconv"
)

// FFT convolution kernels. The kernel names replicate the cuDNN kernels
// the paper observed for MNIST (Fig. 7): fft2d_r2c_32x32, fft2d_r2c_16x16,
// fft2d_c2r_32x32 (we also provide fft2d_c2r_16x16), plus the pointwise
// complex CGEMM. Bit reversal uses brev.b32 — the PTX 2.0 instruction the
// paper had to add to GPGPU-Sim for cuDNN's FFT-based kernels (§III-B).
//
// Layouts: real planes are [plane][N*N] floats; spectra are interleaved
// complex [plane][N*N] float2 (ld/st.v2.f32). One thread block of N
// threads handles one plane: thread t FFTs row t, barrier, then column t.

// emitButterflies generates the in-place radix-2 DIT butterfly loops over
// one line (n = 1<<log2n elements) of the shared-memory tile. base is a
// b32 shared byte address of element 0 of the line; strideElems is the
// element distance within the line (1 for rows, N for columns). sign is
// -1 for forward, +1 for inverse.
func emitButterflies(b *Builder, log2n int, base string, strideElems int, sign float32, uniq string) {
	pi := b.MovF32(sign * float32(math.Pi))
	s := b.R(B32)
	b.I("mov.u32 %s, 1;", s)
	sLoop := b.L("FFT_S_" + uniq)
	pDone := b.R(Pred)
	sEnd := b.NewLabel("fft_s_end_" + uniq)
	b.I("setp.gt.u32 %s, %s, %d;", pDone, s, log2n)
	b.I("@%s bra %s;", pDone, sEnd)
	m, half := b.R(B32), b.R(B32)
	b.I("shl.b32 %s, 1, %s;", m, s)
	b.I("shr.u32 %s, %s, 1;", half, m)
	sm1 := b.R(B32)
	b.I("sub.u32 %s, %s, 1;", sm1, s)
	halfMask := b.R(B32)
	b.I("sub.u32 %s, %s, 1;", halfMask, half)

	b.loop("FFT_J_"+uniq, "fft_j_end_"+uniq, "0", strconv.Itoa(1<<(log2n-1)), "1", func(j string) {
		grp, pos := b.R(B32), b.R(B32)
		b.I("shr.u32 %s, %s, %s;", grp, j, sm1)
		b.I("and.b32 %s, %s, %s;", pos, j, halfMask)
		i1, i2 := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, %s, %s;", i1, grp, m, pos)
		b.I("add.u32 %s, %s, %s;", i2, i1, half)

		// twiddle: ang = sign*pi*pos/half
		posF, halfF, ang := b.R(F32), b.R(F32), b.R(F32)
		b.I("cvt.rn.f32.u32 %s, %s;", posF, pos)
		b.I("cvt.rn.f32.u32 %s, %s;", halfF, half)
		b.I("div.rn.f32 %s, %s, %s;", ang, posF, halfF)
		b.I("mul.f32 %s, %s, %s;", ang, ang, pi)
		wr, wi := b.R(F32), b.R(F32)
		b.I("cos.approx.f32 %s, %s;", wr, ang)
		b.I("sin.approx.f32 %s, %s;", wi, ang)

		a1, a2 := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", a1, i1, strideElems*8, base)
		b.I("mad.lo.s32 %s, %s, %d, %s;", a2, i2, strideElems*8, base)
		r2, im2 := b.R(F32), b.R(F32)
		b.I("ld.shared.v2.f32 {%s, %s}, [%s];", r2, im2, a2)
		tr, ti := b.R(F32), b.R(F32)
		tmp := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", tr, wr, r2)
		b.I("mul.f32 %s, %s, %s;", tmp, wi, im2)
		b.I("sub.f32 %s, %s, %s;", tr, tr, tmp)
		b.I("mul.f32 %s, %s, %s;", ti, wr, im2)
		b.I("fma.rn.f32 %s, %s, %s, %s;", ti, wi, r2, ti)
		r1, im1 := b.R(F32), b.R(F32)
		b.I("ld.shared.v2.f32 {%s, %s}, [%s];", r1, im1, a1)
		or2, oi2 := b.R(F32), b.R(F32)
		b.I("sub.f32 %s, %s, %s;", or2, r1, tr)
		b.I("sub.f32 %s, %s, %s;", oi2, im1, ti)
		b.I("st.shared.v2.f32 [%s], {%s, %s};", a2, or2, oi2)
		or1, oi1 := b.R(F32), b.R(F32)
		b.I("add.f32 %s, %s, %s;", or1, r1, tr)
		b.I("add.f32 %s, %s, %s;", oi1, im1, ti)
		b.I("st.shared.v2.f32 [%s], {%s, %s};", a1, or1, oi1)
	})
	b.I("add.u32 %s, %s, 1;", s, s)
	b.I("bra %s;", sLoop)
	b.L(sEnd)
}

// bitRev emits jr = brev(j) >> (32 - log2n).
func bitRev(b *Builder, j string, log2n int) string {
	jr := b.R(B32)
	b.I("brev.b32 %s, %s;", jr, j)
	b.I("shr.u32 %s, %s, %d;", jr, jr, 32-log2n)
	return jr
}

// fft2D generates one of the fft2d kernels.
//   - name: entry name (e.g. "fft2d_r2c_32x32")
//   - log2n: log2 of the tile edge n (4 or 5 for the shipped 16 and 32)
//   - inverse: inverse transform (positive twiddle sign)
//   - realIn: input planes are real floats (forward r2c staging)
//   - realOut: output planes are real floats scaled by pScale (c2r)
func fft2D(name string, log2n int, inverse, realIn, realOut bool) string {
	n := 1 << log2n
	edge := strconv.Itoa(n)
	b := NewBuilder(name)
	pIn, pOut := b.PtrParam("pIn"), b.PtrParam("pOut")
	var pScale string
	if realOut {
		pScale = b.F32Param("pScale")
	}
	sm := b.Shared("tile", n*n*8, 8)

	t := b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", t)
	plane := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", plane)
	inB := b.LoadPtr(pIn)
	outB := b.LoadPtr(pOut)
	smBase := b.R(B32)
	b.I("mov.u32 %s, %s;", smBase, sm)

	sign := float32(-1)
	if inverse {
		sign = 1
	}

	// ---- Phase A: row t ----
	// Load row elements into bit-reversed positions of shared memory.
	rowBase := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %d, %s;", rowBase, t, n*8, smBase)
	planeOffIn := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %d;", planeOffIn, plane, n*n)
	b.loop("LOAD_LOOP", "load_end", "0", edge, "1", func(j string) {
		srcIdx := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", srcIdx, t, n, j)
		b.I("add.u32 %s, %s, %s;", srcIdx, srcIdx, planeOffIn)
		re, im := b.R(F32), b.R(F32)
		if realIn {
			aIn := b.ElemAddr(inB, srcIdx, 4)
			b.I("ld.global.f32 %s, [%s];", re, aIn)
			b.I("mov.f32 %s, %s;", im, F32Imm(0))
		} else {
			aIn := b.ElemAddr(inB, srcIdx, 8)
			b.I("ld.global.v2.f32 {%s, %s}, [%s];", re, im, aIn)
		}
		jr := bitRev(b, j, log2n)
		dst := b.R(B32)
		b.I("mad.lo.s32 %s, %s, 8, %s;", dst, jr, rowBase)
		b.I("st.shared.v2.f32 [%s], {%s, %s};", dst, re, im)
	})

	emitButterflies(b, log2n, rowBase, 1, sign, "row")
	b.I("bar.sync 0;")

	// ---- Phase B: column t ----
	colBase := b.R(B32)
	b.I("mad.lo.s32 %s, %s, 8, %s;", colBase, t, smBase)
	// In-place bit-reversal permutation along the column.
	b.loop("PERM_LOOP", "perm_end", "0", edge, "1", func(j string) {
		jr := bitRev(b, j, log2n)
		pswap := b.R(Pred)
		noswap := b.NewLabel("noswap")
		b.I("setp.ge.u32 %s, %s, %s;", pswap, j, jr)
		b.I("@%s bra %s;", pswap, noswap)
		aA, aB := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", aA, j, n*8, colBase)
		b.I("mad.lo.s32 %s, %s, %d, %s;", aB, jr, n*8, colBase)
		ra, ia := b.R(F32), b.R(F32)
		rb, ib := b.R(F32), b.R(F32)
		b.I("ld.shared.v2.f32 {%s, %s}, [%s];", ra, ia, aA)
		b.I("ld.shared.v2.f32 {%s, %s}, [%s];", rb, ib, aB)
		b.I("st.shared.v2.f32 [%s], {%s, %s};", aA, rb, ib)
		b.I("st.shared.v2.f32 [%s], {%s, %s};", aB, ra, ia)
		b.L(noswap)
	})

	emitButterflies(b, log2n, colBase, n, sign, "col")

	// ---- write out ----
	var scale string
	if realOut {
		scale = b.LoadF32(pScale)
	}
	planeOffOut := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %d;", planeOffOut, plane, n*n)
	b.loop("OUT_LOOP", "out_end", "0", edge, "1", func(j string) {
		sAddr := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", sAddr, j, n*8, colBase)
		vr, vi := b.R(F32), b.R(F32)
		b.I("ld.shared.v2.f32 {%s, %s}, [%s];", vr, vi, sAddr)
		dstIdx := b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", dstIdx, j, n, t)
		b.I("add.u32 %s, %s, %s;", dstIdx, dstIdx, planeOffOut)
		if realOut {
			b.I("mul.f32 %s, %s, %s;", vr, vr, scale)
			aOut := b.ElemAddr(outB, dstIdx, 4)
			b.I("st.global.f32 [%s], %s;", aOut, vr)
		} else {
			aOut := b.ElemAddr(outB, dstIdx, 8)
			b.I("st.global.v2.f32 [%s], {%s, %s};", aOut, vr, vi)
		}
	})
	return b.Build()
}

// fftR2C32 is fft2d_r2c_32x32 — the kernel in which the paper's debug
// flow localised GPGPU-Sim's rem.u32 bug.
func fftR2C32() string { return fft2D("fft2d_r2c_32x32", 5, false, true, false) }

// fftR2C16 is fft2d_r2c_16x16.
func fftR2C16() string { return fft2D("fft2d_r2c_16x16", 4, false, true, false) }

// fftC2R32 is fft2d_c2r_32x32 (inverse, real output, scaled).
func fftC2R32() string { return fft2D("fft2d_c2r_32x32", 5, true, false, true) }

// fftC2R16 is fft2d_c2r_16x16.
func fftC2R16() string { return fft2D("fft2d_c2r_16x16", 4, true, false, true) }

// cgemm is the pointwise complex accumulation across channels in the
// frequency domain: for tile tt (= ctaid.y) and each (k, f),
//
//	Y[(k*NT+tt), f] = sum_c conj(W[(k*C+c), f]) * X[(c*NT+tt), f]
//
// conj(W)·X implements cross-correlation (what CNN "convolution" is).
func cgemm() string {
	b := NewBuilder("cgemm")
	pX, pW, pY := b.PtrParam("pX"), b.PtrParam("pW"), b.PtrParam("pY")
	pC, pK, pNN, pNT := b.U32Param("pC"), b.U32Param("pK"), b.U32Param("pNN"), b.U32Param("pNT")
	end, idx, ext := b.guardTid(pK, pNN)
	nn := ext[1]
	f, kk := b.remDiv(idx, nn)
	tt := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", tt)
	c := b.LoadU32(pC)
	nt := b.LoadU32(pNT)
	xB := b.LoadPtr(pX)
	wB := b.LoadPtr(pW)
	yB := b.LoadPtr(pY)

	accR := b.MovF32(0)
	accI := b.MovF32(0)
	b.loop("CG_LOOP", "cg_end", "0", c, "1", func(cc string) {
		// X[(cc*NT+tt)*NN + f]
		ax := b.ElemAddr(xB, b.flatIndex(cc, nt, tt, nn, f), 8)
		xr, xim := b.R(F32), b.R(F32)
		b.I("ld.global.v2.f32 {%s, %s}, [%s];", xr, xim, ax)
		// W[(kk*C+cc)*NN + f]
		aw := b.ElemAddr(wB, b.flatIndex(kk, c, cc, nn, f), 8)
		wr, wim := b.R(F32), b.R(F32)
		b.I("ld.global.v2.f32 {%s, %s}, [%s];", wr, wim, aw)
		// conj(W)*X = (wr - i wi)(xr + i xi) = (wr*xr + wi*xi) + i(wr*xi - wi*xr)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accR, wr, xr, accR)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accR, wim, xim, accR)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accI, wr, xim, accI)
		t1 := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", t1, wim, xr)
		b.I("sub.f32 %s, %s, %s;", accI, accI, t1)
	})

	ay := b.ElemAddr(yB, b.flatIndex(kk, nt, tt, nn, f), 8)
	b.I("st.global.v2.f32 [%s], {%s, %s};", ay, accR, accI)
	b.L(end)
	return b.Build()
}

// fftCrop extracts the valid correlation region from full inverse-FFT
// frames: out[p, u, v] = in[p, (u-P) mod N, (v-P) mod N] for planes p.
func fftCrop() string {
	b := NewBuilder("fft_crop")
	pIn, pOut := b.PtrParam("pIn"), b.PtrParam("pOut")
	pN := b.U32Param("pN")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	pPad := b.U32Param("pPad")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, oh, ow)
	b.GuardEnd(idx, tot, end)
	plane := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", plane)
	u, v := b.divRem(idx, ow)
	n := b.LoadU32(pN)
	pad := b.LoadU32(pPad)
	su, sv := b.R(B32), b.R(B32)
	b.I("add.u32 %s, %s, %s;", su, u, n)
	b.I("sub.u32 %s, %s, %s;", su, su, pad)
	b.I("rem.u32 %s, %s, %s;", su, su, n)
	b.I("add.u32 %s, %s, %s;", sv, v, n)
	b.I("sub.u32 %s, %s, %s;", sv, sv, pad)
	b.I("rem.u32 %s, %s, %s;", sv, sv, n)
	inB := b.LoadPtr(pIn)
	outB := b.LoadPtr(pOut)
	nn := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", nn, n, n)
	si := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, 0;", si, plane, nn)
	b.I("mad.lo.s32 %s, %s, %s, %s;", si, su, n, si)
	b.I("add.u32 %s, %s, %s;", si, si, sv)
	ain := b.ElemAddr(inB, si, 4)
	val := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", val, ain)
	aout := b.ElemAddr(outB, b.flatIndex(plane, tot, idx), 4)
	b.I("st.global.f32 [%s], %s;", aout, val)
	b.L(end)
	return b.Build()
}

// fftTileExtract cuts overlapping tileN x tileN tiles out of x[C,H,W] for
// the FFT-Tiling algorithm: dst plane (c*ntX*ntY + ty*ntX + tx) holds the
// tile whose origin is (ty*step-pad, tx*step-pad), zero-filled outside.
func fftTileExtract() string {
	b := NewBuilder("fft_tile_extract")
	pX, pOut := b.PtrParam("pX"), b.PtrParam("pOut")
	b.U32Param("pC") // kept for a cuDNN-shaped signature; plane = ctaid.y
	pH, pW := b.U32Param("pH"), b.U32Param("pWidth")
	pTileN, pNTX, pNTY := b.U32Param("pTileN"), b.U32Param("pNTX"), b.U32Param("pNTY")
	pStep, pPad := b.U32Param("pStep"), b.U32Param("pPad")
	pWin := b.U32Param("pWin") // tile positions at u or v >= win read as zero
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	tn := b.LoadU32(pTileN)
	nn := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", nn, tn, tn)
	b.GuardEnd(idx, nn, end)
	plane := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", plane)
	ntx := b.LoadU32(pNTX)
	nty := b.LoadU32(pNTY)
	// plane -> (c, ty, tx)
	tiles := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tiles, ntx, nty)
	tIdx, c := b.remDiv(plane, tiles)
	ty, tx := b.divRem(tIdx, ntx)
	u, v := b.divRem(idx, tn)
	step := b.LoadU32(pStep)
	pad := b.LoadU32(pPad)
	iy, ix := b.R(B32), b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", iy, ty, step, u)
	b.I("sub.u32 %s, %s, %s;", iy, iy, pad)
	b.I("mad.lo.s32 %s, %s, %s, %s;", ix, tx, step, v)
	b.I("sub.u32 %s, %s, %s;", ix, ix, pad)
	h := b.LoadU32(pH)
	w := b.LoadU32(pW)
	pin, ptmp := b.R(Pred), b.R(Pred)
	b.I("setp.lt.u32 %s, %s, %s;", pin, iy, h)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, ix, w)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)
	winLim := b.LoadU32(pWin)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, u, winLim)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)
	b.I("setp.lt.u32 %s, %s, %s;", ptmp, v, winLim)
	b.I("and.pred %s, %s, %s;", pin, pin, ptmp)
	xB := b.LoadPtr(pX)
	outB := b.LoadPtr(pOut)
	si := b.flatIndex(c, h, iy, w, ix)
	clamped := b.R(B32)
	b.I("selp.b32 %s, %s, 0, %s;", clamped, si, pin)
	ax := b.ElemAddr(xB, clamped, 4)
	val := b.R(F32)
	z := b.MovF32(0)
	b.I("ld.global.f32 %s, [%s];", val, ax)
	b.I("selp.b32 %s, %s, %s, %s;", val, val, z, pin)
	aout := b.ElemAddr(outB, b.flatIndex(plane, nn, idx), 4)
	b.I("st.global.f32 [%s], %s;", aout, val)
	b.L(end)
	return b.Build()
}

// fftTileStitch assembles the per-tile correlation results back into
// y[k, OH, OW]: each output pixel belongs to exactly one tile of edge
// step; tiles are laid out as planes (k*ntX*ntY + ty*ntX + tx) of tileN².
func fftTileStitch() string {
	b := NewBuilder("fft_tile_stitch")
	pTiles, pY := b.PtrParam("pTiles"), b.PtrParam("pY")
	pOH, pOW := b.U32Param("pOH"), b.U32Param("pOW")
	pTileN, pNTX, pNTY := b.U32Param("pTileN"), b.U32Param("pNTX"), b.U32Param("pNTY")
	pStep := b.U32Param("pStep")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	oh := b.LoadU32(pOH)
	ow := b.LoadU32(pOW)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, oh, ow)
	b.GuardEnd(idx, tot, end)
	k := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.y;", k)
	oy, ox := b.divRem(idx, ow)
	step := b.LoadU32(pStep)
	ty, u := b.divRem(oy, step)
	tx, v := b.divRem(ox, step)
	ntx := b.LoadU32(pNTX)
	nty := b.LoadU32(pNTY)
	tn := b.LoadU32(pTileN)
	tiles := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tiles, ntx, nty)
	plane := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, 0;", plane, k, tiles)
	b.I("mad.lo.s32 %s, %s, %s, %s;", plane, ty, ntx, plane)
	b.I("add.u32 %s, %s, %s;", plane, plane, tx)
	nn := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", nn, tn, tn)
	si := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, 0;", si, plane, nn)
	b.I("mad.lo.s32 %s, %s, %s, %s;", si, u, tn, si)
	b.I("add.u32 %s, %s, %s;", si, si, v)
	tB := b.LoadPtr(pTiles)
	yB := b.LoadPtr(pY)
	ain := b.ElemAddr(tB, si, 4)
	val := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", val, ain)
	aout := b.ElemAddr(yB, b.flatIndex(k, tot, idx), 4)
	b.I("st.global.f32 [%s], %s;", aout, val)
	b.L(end)
	return b.Build()
}

// cgemmBwdFilter accumulates filter-gradient spectra:
//
//	dWspec[(k*C+c), f] += sum_t conj(DY[(k*NT+t), f]) * X[(c*NT+t), f]
//
// where t enumerates the NT tiles of one image (NT=1 for the plain FFT
// algorithm). The caller zeroes dWspec once and launches per image, so the
// image sum also accumulates in the frequency domain.
func cgemmBwdFilter() string {
	b := NewBuilder("cgemm_bwd_filter")
	pX, pDY, pDW := b.PtrParam("pX"), b.PtrParam("pDY"), b.PtrParam("pDW")
	pC, pK, pNN, pNT := b.U32Param("pC"), b.U32Param("pK"), b.U32Param("pNN"), b.U32Param("pNT")
	end := b.NewLabel("end")
	idx := b.GlobalTidX()
	c := b.LoadU32(pC)
	k := b.LoadU32(pK)
	nn := b.LoadU32(pNN)
	tot := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", tot, k, c)
	b.I("mul.lo.u32 %s, %s, %s;", tot, tot, nn)
	b.GuardEnd(idx, tot, end)
	f, t1 := b.remDiv(idx, nn)
	cc, kk := b.remDiv(t1, c)
	nt := b.LoadU32(pNT)
	xB := b.LoadPtr(pX)
	dyB := b.LoadPtr(pDY)
	dwB := b.LoadPtr(pDW)

	accR := b.MovF32(0)
	accI := b.MovF32(0)
	b.loop("CGBF_LOOP", "cgbf_end", "0", nt, "1", func(tt string) {
		ax := b.ElemAddr(xB, b.flatIndex(cc, nt, tt, nn, f), 8)
		xr, xim := b.R(F32), b.R(F32)
		b.I("ld.global.v2.f32 {%s, %s}, [%s];", xr, xim, ax)
		ady := b.ElemAddr(dyB, b.flatIndex(kk, nt, tt, nn, f), 8)
		yr, yim := b.R(F32), b.R(F32)
		b.I("ld.global.v2.f32 {%s, %s}, [%s];", yr, yim, ady)
		// conj(DY)*X = (yr - i yi)(xr + i xi)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accR, yr, xr, accR)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accR, yim, xim, accR)
		b.I("fma.rn.f32 %s, %s, %s, %s;", accI, yr, xim, accI)
		tmp := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", tmp, yim, xr)
		b.I("sub.f32 %s, %s, %s;", accI, accI, tmp)
	})

	awOut := b.ElemAddr(dwB, idx, 8)
	oldR, oldI := b.R(F32), b.R(F32)
	b.I("ld.global.v2.f32 {%s, %s}, [%s];", oldR, oldI, awOut)
	b.I("add.f32 %s, %s, %s;", accR, accR, oldR)
	b.I("add.f32 %s, %s, %s;", accI, accI, oldI)
	b.I("st.global.v2.f32 [%s], {%s, %s};", awOut, accR, accI)
	b.L(end)
	return b.Build()
}
