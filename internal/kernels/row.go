package kernels

// Phases shared by the one-CTA-per-row kernels (softmax forward, causal
// and fused cross-entropy; layernorm forward and backward; softmax
// backward): ctaid.x is the row, the 32 lanes stride over its columns,
// and partial results meet in a 32-slot shared array.

// laneAndRow emits tid = %tid.x and row = %ctaid.x.
func (b *Builder) laneAndRow() (tid, row string) {
	tid = b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", tid)
	row = b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", row)
	return tid, row
}

// laneSlots emits the shared byte address of the reduction array sred
// (lane 0's slot, where a reduction leaves its result) and of this lane's
// slot in it.
func (b *Builder) laneSlots(sred, tid string) (sbase, slot string) {
	sbase = b.R(B32)
	b.I("mov.u32 %s, %s;", sbase, sred)
	slot = b.R(B32)
	b.I("mad.lo.s32 %s, %s, 4, %s;", slot, tid, sbase)
	return sbase, slot
}

// rowElem emits the flat index rowOff+i of a row's element i and its f32
// address in base.
func (b *Builder) rowElem(base, rowOff, i string) (idx, addr string) {
	idx = b.R(B32)
	b.I("add.u32 %s, %s, %s;", idx, rowOff, i)
	return idx, b.ElemAddr(base, idx, 4)
}

// reduceAdd32 is the 32-lane add reduceShared under generated labels, for
// the kernels that reduce more than once.
func (b *Builder) reduceAdd32(tid, slot, partial string) {
	b.reduceShared("add", 32, tid, slot, partial, b.NewLabel("red"), "red_end", "red_skip")
}

// laneMax emits this lane's maximum over its strided share (i = tid,
// tid+32, … below limit) of the row x[rowOff+i].
func (b *Builder) laneMax(head, endHint, tid, limit, xB, rowOff string) string {
	best := b.MovF32(-3.4e38)
	b.loop(head, endHint, tid, limit, "32", func(i string) {
		_, ax := b.rowElem(xB, rowOff, i)
		v := b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, ax)
		b.I("max.f32 %s, %s, %s;", best, best, v)
	})
	return best
}

// expShifted loads x from addr and emits exp(x - rowMax), exp synthesised
// from ex2 (exp(x) = 2^(x*log2 e)) as real GPU code generators do.
func (b *Builder) expShifted(addr, rowMax, log2e string) string {
	v, sh, ev := b.R(F32), b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, addr)
	b.I("sub.f32 %s, %s, %s;", sh, v, rowMax)
	b.I("mul.f32 %s, %s, %s;", sh, sh, log2e)
	b.I("ex2.approx.f32 %s, %s;", ev, sh)
	return ev
}

// laneExpSum emits this lane's sum of exp(x - rowMax) over its strided
// share of the row below limit, and returns the log2(e) constant register
// for the write pass to reuse.
func (b *Builder) laneExpSum(head, endHint, tid, limit, xB, rowOff, rowMax string) (log2e, sum string) {
	log2e = b.MovF32(1.4426950408889634)
	sum = b.MovF32(0)
	b.loop(head, endHint, tid, limit, "32", func(i string) {
		_, ax := b.rowElem(xB, rowOff, i)
		ev := b.expShifted(ax, rowMax, log2e)
		b.I("add.f32 %s, %s, %s;", sum, sum, ev)
	})
	return log2e, sum
}

// rowMeanInv emits layernorm's statistics for one row: two strided passes
// with a shared-memory reduction each (sum, then sum of squared
// deviations), leaving the row mean, 1/√(σ²+ε) and float(cols). Loop
// labels are tag_SUM and tag_VAR.
func (b *Builder) rowMeanInv(tag, tid, cols, xB, rowOff, sbase, slot, pEps string) (mean, inv, colsF string) {
	// pass 1: strided partial sum
	sum := b.MovF32(0)
	b.loop(tag+"_SUM", tag+"_sum_end", tid, cols, "32", func(i string) {
		_, ax := b.rowElem(xB, rowOff, i)
		v := b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, ax)
		b.I("add.f32 %s, %s, %s;", sum, sum, v)
	})
	b.reduceAdd32(tid, slot, sum)
	colsF = b.R(F32)
	b.I("cvt.rn.f32.u32 %s, %s;", colsF, cols)
	mean = b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", mean, sbase)
	b.I("div.rn.f32 %s, %s, %s;", mean, mean, colsF)
	b.I("bar.sync 0;")

	// pass 2: strided partial sum of squared deviations
	sq := b.MovF32(0)
	b.loop(tag+"_VAR", tag+"_var_end", tid, cols, "32", func(i string) {
		_, ax := b.rowElem(xB, rowOff, i)
		v, d := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, ax)
		b.I("sub.f32 %s, %s, %s;", d, v, mean)
		b.I("fma.rn.f32 %s, %s, %s, %s;", sq, d, d, sq)
	})
	b.reduceAdd32(tid, slot, sq)
	variance := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", variance, sbase)
	b.I("div.rn.f32 %s, %s, %s;", variance, variance, colsF)
	eps := b.LoadF32(pEps)
	inv = b.R(F32)
	b.I("add.f32 %s, %s, %s;", inv, variance, eps)
	b.I("rsqrt.approx.f32 %s, %s;", inv, inv)
	return mean, inv, colsF
}
