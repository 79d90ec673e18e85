package kernels

// Softmax and loss kernels: one CTA per row (batch sample), warp-wide
// shared-memory reductions for the max and the sum (phases in row.go).

// softmaxForward computes y[row] = softmax(x[row]) for rows of length
// cols. One 32-thread block per row; cols must fit a strided loop.
func softmaxForward() string {
	b := NewBuilder("softmax_forward")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pCols := b.U32Param("pCols")
	sred := b.Shared("smax", 32*4, 4)

	tid, row := b.laneAndRow()
	cols := b.LoadU32(pCols)
	xB := b.LoadPtr(pX)
	yB := b.LoadPtr(pY)
	rowOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", rowOff, row, cols)

	// row max: local max over strided elements, then a shared-memory max
	// reduction over the 32 lanes
	best := b.laneMax("SM_MAX", "sm_max_end", tid, cols, xB, rowOff)
	sbase, slot := b.laneSlots(sred, tid)
	b.reduceShared("max", 32, tid, slot, best, "SM_RED", "sm_red_end", "sm_skip")
	rowMax := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", rowMax, sbase)
	b.I("bar.sync 0;")

	// row total of exp(x - max)
	log2e, sum := b.laneExpSum("SM_SUM", "sm_sum_end", tid, cols, xB, rowOff, rowMax)
	b.reduceShared("add", 32, tid, slot, sum, "SM_RED2", "sm_red2_end", "sm_skip2")
	total := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", total, sbase)

	// write y = exp(x - max) / total
	b.loop("SM_WRITE", "sm_write_end", tid, cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, rowOff, i)
		ay := b.ElemAddr(yB, ei, 4)
		ev := b.expShifted(ax, rowMax, log2e)
		b.I("div.rn.f32 %s, %s, %s;", ev, ev, total)
		b.I("st.global.f32 [%s], %s;", ay, ev)
	})
	return b.Build()
}

// softmaxNLLBackward computes the fused softmax+NLL gradient:
// dx[row, j] = (y[row, j] - onehot(label[row], j)) / batch.
func softmaxNLLBackward() string {
	b := NewBuilder("softmax_nll_backward")
	pY, pLabels, pDX := b.PtrParam("pY"), b.PtrParam("pLabels"), b.PtrParam("pDX")
	pCols, pBatch := b.U32Param("pCols"), b.U32Param("pBatch")
	end, idx, ext := b.guardTid(pCols, pBatch)
	cols, batch := ext[0], ext[1]
	j, row := b.remDiv(idx, cols)
	yB := b.LoadPtr(pY)
	lB := b.LoadPtr(pLabels)
	dxB := b.LoadPtr(pDX)
	ay := b.ElemAddr(yB, idx, 4)
	al := b.ElemAddr(lB, row, 4)
	vy := b.R(F32)
	lab := b.R(B32)
	b.I("ld.global.f32 %s, [%s];", vy, ay)
	b.I("ld.global.u32 %s, [%s];", lab, al)
	ph := b.R(Pred)
	one := b.MovF32(1)
	zero := b.MovF32(0)
	hot := b.R(F32)
	b.I("setp.eq.u32 %s, %s, %s;", ph, j, lab)
	b.I("selp.b32 %s, %s, %s, %s;", hot, one, zero, ph)
	g := b.R(F32)
	b.I("sub.f32 %s, %s, %s;", g, vy, hot)
	bf := b.R(F32)
	b.I("cvt.rn.f32.u32 %s, %s;", bf, batch)
	b.I("div.rn.f32 %s, %s, %s;", g, g, bf)
	adx := b.ElemAddr(dxB, idx, 4)
	b.I("st.global.f32 [%s], %s;", adx, g)
	b.L(end)
	return b.Build()
}
