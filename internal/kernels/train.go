package kernels

// Transformer training kernels: the TN strided-batched GEMM that carries
// every weight gradient (dW = xᵀ·dy) and the attention dK/dV products,
// the layernorm/GELU/softmax backward passes, the fused softmax +
// cross-entropy gradient on raw logits, and the embedding scatter-add
// that accumulates token gradients with global atomics — the
// weight-update atomics workload the deferred-drain contract exists for.
// Shapes and reduction structure mirror the forward kernels in
// transformer.go; gradients compare against internal/ref oracles.

// sgemmTNBatched is sgemm_tn_batched: C = alpha*Aᵀ*B + beta*C for
// row-major A[K,M], B[K,N], C[M,N] — the weight-gradient GEMM; grid.z
// carries the per-head dK/dV slices of attention backward.
func sgemmTNBatched() string { return sgemm("sgemm_tn_batched", true, false) }

// layerNormBackward differentiates layernorm_forward for one row per
// 32-thread CTA: it recomputes μ and 1/√(σ²+ε), reduces Σ(dy·γ) and
// Σ(dy·γ·x̂), writes dx = (dy·γ - mean - x̂·mean(dy·γ·x̂))·inv, and
// accumulates the per-column parameter gradients dgamma[j] += dy·x̂ and
// dbeta[j] += dy with global atomics (rows race on the same columns).
func layerNormBackward() string {
	b := NewBuilder("layernorm_backward")
	pX, pG := b.PtrParam("pX"), b.PtrParam("pGamma")
	pDY, pDX := b.PtrParam("pDY"), b.PtrParam("pDX")
	pDG, pDB := b.PtrParam("pDGamma"), b.PtrParam("pDBeta")
	pCols := b.U32Param("pCols")
	pEps := b.F32Param("pEps")
	sred := b.Shared("slnb", 32*4, 4)

	r := b.rowStart(pCols, pX, pG, pDY, pDX, pDG, pDB)
	xB, gB, dyB, dxB, dgB, dbB := r.ptr[0], r.ptr[1], r.ptr[2], r.ptr[3], r.ptr[4], r.ptr[5]
	sbase, slot := b.laneSlots(sred, r.tid)

	// passes 1 and 2: row mean and inverse standard deviation
	mean, inv, colsF := b.rowMeanInv("LNB", r.tid, r.cols, xB, r.rowOff, sbase, slot, pEps)
	b.I("bar.sync 0;")

	// pass 3: partial s1 = Σ dy·γ and s2 = Σ dy·γ·x̂ in one strided loop
	ps1 := b.MovF32(0)
	ps2 := b.MovF32(0)
	b.loop("LNB_GSUM", "lnb_gsum_end", r.tid, r.cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, r.rowOff, i)
		ady := b.ElemAddr(dyB, ei, 4)
		ag := b.ElemAddr(gB, i, 4)
		_, xh, g := layerNormTerms(b, ax, ady, ag, mean, inv)
		b.I("add.f32 %s, %s, %s;", ps1, ps1, g)
		b.I("fma.rn.f32 %s, %s, %s, %s;", ps2, g, xh, ps2)
	})

	b.reduceAdd32(r.tid, slot, ps1)
	s1 := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", s1, sbase)
	b.I("div.rn.f32 %s, %s, %s;", s1, s1, colsF)
	b.I("bar.sync 0;")
	b.reduceAdd32(r.tid, slot, ps2)
	s2 := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", s2, sbase)
	b.I("div.rn.f32 %s, %s, %s;", s2, s2, colsF)

	// pass 4: write dx and atomically accumulate dgamma/dbeta
	b.loop("LNB_WRITE", "lnb_write_end", r.tid, r.cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, r.rowOff, i)
		ady := b.ElemAddr(dyB, ei, 4)
		ag := b.ElemAddr(gB, i, 4)
		adx := b.ElemAddr(dxB, ei, 4)
		adg := b.ElemAddr(dgB, i, 4)
		adb := b.ElemAddr(dbB, i, 4)
		vdy, xh, g := layerNormTerms(b, ax, ady, ag, mean, inv)
		dx := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", dx, g, s1)
		neg := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", neg, xh, s2)
		b.I("sub.f32 %s, %s, %s;", dx, dx, neg)
		b.I("mul.f32 %s, %s, %s;", dx, dx, inv)
		b.I("st.global.f32 [%s], %s;", adx, dx)
		cg := b.R(F32)
		b.I("mul.f32 %s, %s, %s;", cg, vdy, xh)
		oldg, oldb := b.R(F32), b.R(F32)
		b.I("atom.global.add.f32 %s, [%s], %s;", oldg, adg, cg)
		b.I("atom.global.add.f32 %s, [%s], %s;", oldb, adb, vdy)
	})
	return b.Build()
}

// layerNormTerms loads x, dy and γ from the addresses ax, ady and ag
// and emits x̂ = (x-mean)·inv and g = dy·γ.
func layerNormTerms(b *Builder, ax, ady, ag, mean, inv string) (vdy, xh, g string) {
	vx, vdy, vg := b.R(F32), b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vx, ax)
	b.I("ld.global.f32 %s, [%s];", vdy, ady)
	b.I("ld.global.f32 %s, [%s];", vg, ag)
	xh, g = b.R(F32), b.R(F32)
	b.I("sub.f32 %s, %s, %s;", xh, vx, mean)
	b.I("mul.f32 %s, %s, %s;", xh, xh, inv)
	b.I("mul.f32 %s, %s, %s;", g, vdy, vg)
	return vdy, xh, g
}

// geluBackward computes dx = dy·GELU'(x) for the tanh-form GELU, with
// gelu_forward's tanh (geluTanh) so forward and backward agree on the
// saturated tails.
func geluBackward() string {
	b := NewBuilder("gelu_backward")
	pX, pDY, pDX := b.PtrParam("pX"), b.PtrParam("pDY"), b.PtrParam("pDX")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pX, pDY, pDX)
	ax, ady, adx := a[0], a[1], a[2]
	v, vdy := b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	b.I("ld.global.f32 %s, [%s];", vdy, ady)
	c0 := b.MovF32(0.7978845608028654) // sqrt(2/pi)
	c1 := b.MovF32(0.044715)
	x2 := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", x2, v, v)
	x3 := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", x3, x2, v)
	th, one, half := geluTanh(b, v, x3, c0, c1)
	// 0.5·(1+tanh)
	d1 := b.R(F32)
	b.I("add.f32 %s, %s, %s;", d1, th, one)
	b.I("mul.f32 %s, %s, %s;", d1, d1, half)
	// 0.5·x·(1-tanh²)·√(2/π)·(1+3·0.044715·x²)
	tt := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", tt, th, th)
	omt := b.R(F32)
	b.I("sub.f32 %s, %s, %s;", omt, one, tt)
	c3 := b.MovF32(0.134145) // 3*0.044715
	du := b.R(F32)
	b.I("fma.rn.f32 %s, %s, %s, %s;", du, c3, x2, one)
	b.I("mul.f32 %s, %s, %s;", du, du, c0)
	d2 := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", d2, v, omt)
	b.I("mul.f32 %s, %s, %s;", d2, d2, du)
	b.I("mul.f32 %s, %s, %s;", d2, d2, half)
	dg := b.R(F32)
	b.I("add.f32 %s, %s, %s;", dg, d1, d2)
	out := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", out, vdy, dg)
	b.I("st.global.f32 [%s], %s;", adx, out)
	b.L(end)
	return b.Build()
}

// softmaxBackward differentiates a row softmax given its forward output:
// dx[row,j] = p[row,j]·(dp[row,j] - Σ_k dp[row,k]·p[row,k]). One
// 32-thread CTA per row with one shared-memory dot-product reduction —
// the attention-probability gradient between the two strided-batched
// GEMMs of attention backward.
func softmaxBackward() string {
	b := NewBuilder("softmax_backward")
	pP, pDP, pDX := b.PtrParam("pP"), b.PtrParam("pDP"), b.PtrParam("pDX")
	pCols := b.U32Param("pCols")
	sred := b.Shared("ssb", 32*4, 4)

	r := b.rowStart(pCols, pP, pDP, pDX)
	pB, dpB, dxB := r.ptr[0], r.ptr[1], r.ptr[2]
	sbase, slot := b.laneSlots(sred, r.tid)

	// strided partial dot = Σ p·dp
	dot := b.MovF32(0)
	b.loop("SB_DOT", "sb_dot_end", r.tid, r.cols, "32", func(i string) {
		ei, ap := b.rowElem(pB, r.rowOff, i)
		adp := b.ElemAddr(dpB, ei, 4)
		b.fmaLoad(dot, ap, adp)
	})
	b.reduceAdd32(r.tid, slot, dot)
	total := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", total, sbase)

	// write dx = p·(dp - dot)
	b.loop("SB_WRITE", "sb_write_end", r.tid, r.cols, "32", func(i string) {
		ei, ap := b.rowElem(pB, r.rowOff, i)
		adp := b.ElemAddr(dpB, ei, 4)
		adx := b.ElemAddr(dxB, ei, 4)
		vp, vdp := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", vp, ap)
		b.I("ld.global.f32 %s, [%s];", vdp, adp)
		g := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", g, vdp, total)
		b.I("mul.f32 %s, %s, %s;", g, g, vp)
		b.I("st.global.f32 [%s], %s;", adx, g)
	})
	return b.Build()
}

// softmaxXentBackward fuses the training loss head: for each row of raw
// logits[rows, cols] it computes the softmax in place (max + exp-sum
// reductions like softmax_forward), writes the cross-entropy gradient
// dx = (softmax - onehot(label))/rows, and stores the per-row loss
// -log softmax[label] (natural log via lg2). One 32-thread CTA per row.
func softmaxXentBackward() string {
	b := NewBuilder("softmax_xent_backward")
	pX, pLab := b.PtrParam("pX"), b.PtrParam("pLabels")
	pDX, pLoss := b.PtrParam("pDX"), b.PtrParam("pLoss")
	pCols, pRows := b.U32Param("pCols"), b.U32Param("pRows")
	sred := b.Shared("sxe", 32*4, 4)

	tid, row := b.laneAndRow()
	cols := b.LoadU32(pCols)
	rows := b.LoadU32(pRows)
	xB := b.LoadPtr(pX)
	labB := b.LoadPtr(pLab)
	dxB := b.LoadPtr(pDX)
	lossB := b.LoadPtr(pLoss)
	rowOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", rowOff, row, cols)
	alab := b.ElemAddr(labB, row, 4)
	lab := b.R(B32)
	b.I("ld.global.u32 %s, [%s];", lab, alab)

	// row max: local max over strided elements, then a shared-memory max
	// reduction over the 32 lanes
	best := b.laneMax("XE_MAX", "xe_max_end", tid, cols, xB, rowOff)
	sbase, slot := b.laneSlots(sred, tid)
	b.reduceShared("max", 32, tid, slot, best, "XE_RED", "xe_red_end", "xe_skip")
	rowMax := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", rowMax, sbase)
	b.I("bar.sync 0;")

	// row total of exp(x - max)
	log2e, sum := b.laneExpSum("XE_SUM", "xe_sum_end", tid, cols, xB, rowOff, rowMax)
	b.reduceAdd32(tid, slot, sum)
	total := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", total, sbase)

	// lane 0: loss[row] = ln(total) - (x[label] - max)
	pl := b.R(Pred)
	noLoss := b.NewLabel("xe_no_loss")
	b.I("setp.ne.u32 %s, %s, 0;", pl, tid)
	b.I("@%s bra %s;", pl, noLoss)
	_, axL := b.rowElem(xB, rowOff, lab)
	vL := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vL, axL)
	b.I("sub.f32 %s, %s, %s;", vL, vL, rowMax)
	lg := b.R(F32)
	b.I("lg2.approx.f32 %s, %s;", lg, total)
	ln2 := b.MovF32(0.6931471805599453)
	b.I("mul.f32 %s, %s, %s;", lg, lg, ln2)
	lossV := b.R(F32)
	b.I("sub.f32 %s, %s, %s;", lossV, lg, vL)
	aLoss := b.ElemAddr(lossB, row, 4)
	b.I("st.global.f32 [%s], %s;", aLoss, lossV)
	b.L(noLoss)

	// write dx = (exp(x-max)/total - onehot)/rows
	rowsF := b.R(F32)
	b.I("cvt.rn.f32.u32 %s, %s;", rowsF, rows)
	one := b.MovF32(1)
	zero := b.MovF32(0)
	b.loop("XE_WRITE", "xe_write_end", tid, cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, rowOff, i)
		adx := b.ElemAddr(dxB, ei, 4)
		ev := b.expShifted(ax, rowMax, log2e)
		b.I("div.rn.f32 %s, %s, %s;", ev, ev, total)
		ph := b.R(Pred)
		hot := b.R(F32)
		b.I("setp.eq.u32 %s, %s, %s;", ph, i, lab)
		b.I("selp.b32 %s, %s, %s, %s;", hot, one, zero, ph)
		g := b.R(F32)
		b.I("sub.f32 %s, %s, %s;", g, ev, hot)
		b.I("div.rn.f32 %s, %s, %s;", g, g, rowsF)
		b.I("st.global.f32 [%s], %s;", adx, g)
	})
	return b.Build()
}

// embeddingBackward scatter-adds the output gradient dy[rows, cols] into
// the table gradient by token id: dtable[ids[i], j] += dy[i, j]. One
// thread per dy element; repeated tokens collide on the same table row,
// so the accumulation uses atom.global.add.f32 (drained in submission
// order on the coordinator — the weight-update-atomics contract).
func embeddingBackward() string {
	b := NewBuilder("embedding_backward")
	pDY, pIds, pDT := b.PtrParam("pDY"), b.PtrParam("pIds"), b.PtrParam("pDTable")
	pRows, pCols := b.U32Param("pRows"), b.U32Param("pCols")
	end, idx, dst := b.tokenRow(pRows, pCols, pIds)
	dyB := b.LoadPtr(pDY)
	dtB := b.LoadPtr(pDT)
	ady := b.ElemAddr(dyB, idx, 4)
	adt := b.ElemAddr(dtB, dst, 4)
	v := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, ady)
	old := b.R(F32)
	b.I("atom.global.add.f32 %s, [%s], %s;", old, adt, v)
	b.L(end)
	return b.Build()
}
