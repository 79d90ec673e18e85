package kernels

// Softmax forward: one CTA per row (batch sample), warp-wide
// shared-memory reductions for the max and the sum (phases in row.go).

// softmaxForward computes y[row] = softmax(x[row]) for rows of length
// cols. One 32-thread block per row; cols must fit a strided loop.
func softmaxForward() string {
	b := NewBuilder("softmax_forward")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pCols := b.U32Param("pCols")
	sred := b.Shared("smax", 32*4, 4)

	r := b.rowStart(pCols, pX, pY)
	xB, yB := r.ptr[0], r.ptr[1]

	// row max: local max over strided elements, then a shared-memory max
	// reduction over the 32 lanes
	best := b.laneMax("SM_MAX", "sm_max_end", r.tid, r.cols, xB, r.rowOff)
	sbase, slot := b.laneSlots(sred, r.tid)
	b.reduceShared("max", 32, r.tid, slot, best, "SM_RED", "sm_red_end", "sm_skip")
	rowMax := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", rowMax, sbase)
	b.I("bar.sync 0;")

	// row total of exp(x - max)
	log2e, sum := b.laneExpSum("SM_SUM", "sm_sum_end", r.tid, r.cols, xB, r.rowOff, rowMax)
	b.reduceShared("add", 32, r.tid, slot, sum, "SM_RED2", "sm_red2_end", "sm_skip2")
	total := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", total, sbase)

	// write y = exp(x - max) / total
	b.loop("SM_WRITE", "sm_write_end", r.tid, r.cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, r.rowOff, i)
		ay := b.ElemAddr(yB, ei, 4)
		ev := b.expShifted(ax, rowMax, log2e)
		b.I("div.rn.f32 %s, %s, %s;", ev, ev, total)
		b.I("st.global.f32 [%s], %s;", ay, ev)
	})
	return b.Build()
}
