package kernels

// KV-cached autoregressive-decode kernels: the cache-append scatter that
// grows the per-layer key/value cache one (or a prompt's worth of)
// position(s) at a time, the single-token attention GEMVs (Q·Kᵀ over the
// cache prefix and probabilities·V back out of it), the causal-masked
// row softmax shared by prefill and decode, the tied-embedding logit
// GEMV, and the greedy argmax that keeps token selection on the device.
// Every decode step issues one short chain of these tiny dependent
// kernels — the many-small-launch population the paper identifies as the
// worst case for cycle-level simulation, and the stress workload the
// active-set scheduler and replay cache exist for.

// kvCacheAppend scatters a [seq, heads*dh] projection into the head-major
// KV cache [heads, maxSeq, dh] at row offset pos:
// cache[(h*maxSeq+pos+s)*dh+d] = in[(s*heads+h)*dh+d]. One thread per
// element; seq=1 is the decode step, seq=P the prefill bulk append.
func kvCacheAppend() string {
	b := NewBuilder("kv_cache_append")
	pIn, pCache := b.PtrParam("pIn"), b.PtrParam("pCache")
	pSeq, pHeads, pDh := b.U32Param("pSeq"), b.U32Param("pHeads"), b.U32Param("pDh")
	pMaxSeq, pPos := b.U32Param("pMaxSeq"), b.U32Param("pPos")
	end, idx, ext := b.guardTid(pSeq, pHeads, pDh)
	seq, heads, dh := ext[0], ext[1], ext[2]
	// idx -> (h, s, d) over the cache-side [heads, seq, dh] iteration space
	d, t := b.remDiv(idx, dh)
	s, h := b.remDiv(t, seq)
	// src = (s*heads + h)*dh + d
	src := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", src, s, heads, h)
	b.I("mul.lo.u32 %s, %s, %s;", src, src, dh)
	b.I("add.u32 %s, %s, %s;", src, src, d)
	// dst = (h*maxSeq + pos + s)*dh + d
	maxSeq := b.LoadU32(pMaxSeq)
	pos := b.LoadU32(pPos)
	dst := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", dst, h, maxSeq, pos)
	b.I("add.u32 %s, %s, %s;", dst, dst, s)
	b.I("mul.lo.u32 %s, %s, %s;", dst, dst, dh)
	b.I("add.u32 %s, %s, %s;", dst, dst, d)
	in := b.LoadPtr(pIn)
	cache := b.LoadPtr(pCache)
	ain := b.ElemAddr(in, src, 4)
	aout := b.ElemAddr(cache, dst, 4)
	v := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, ain)
	b.I("st.global.f32 [%s], %s;", aout, v)
	b.L(end)
	return b.Build()
}

// attnQKCached is the decode-step attention-score GEMV: one query token
// against the cache prefix, scores[h*len+t] = scale·Σ_d q[h*dh+d] ·
// cacheK[(h*maxSeq+t)*dh+d] for t < len. One thread per (head, cache
// position) pair — the single-token Q·Kᵀ the tentpole names.
func attnQKCached() string {
	b := NewBuilder("attn_qk_cached")
	pQ, pK, pS := b.PtrParam("pQ"), b.PtrParam("pK"), b.PtrParam("pS")
	pHeads, pDh := b.U32Param("pHeads"), b.U32Param("pDh")
	pMaxSeq, pLen := b.U32Param("pMaxSeq"), b.U32Param("pLen")
	pScale := b.F32Param("pScale")
	end, idx, ext := b.guardTid(pHeads, pLen)
	ln := ext[1]
	h, t := b.divRem(idx, ln)
	dh := b.LoadU32(pDh)
	maxSeq := b.LoadU32(pMaxSeq)
	qB := b.LoadPtr(pQ)
	kB := b.LoadPtr(pK)
	// q row base = h*dh, cache row base = (h*maxSeq + t)*dh
	qi := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", qi, h, dh)
	ki := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", ki, h, maxSeq, t)
	b.I("mul.lo.u32 %s, %s, %s;", ki, ki, dh)
	qa := b.ElemAddr(qB, qi, 4)
	ka := b.ElemAddr(kB, ki, 4)
	acc := b.MovF32(0)
	b.loop("QK_DOT", "qk_done", "0", dh, "1", func(string) {
		vq, vk := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", vq, qa)
		b.I("ld.global.f32 %s, [%s];", vk, ka)
		b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vq, vk, acc)
		b.I("add.u64 %s, %s, 4;", qa, qa)
		b.I("add.u64 %s, %s, 4;", ka, ka)
	})
	scale := b.LoadF32(pScale)
	b.I("mul.f32 %s, %s, %s;", acc, acc, scale)
	sa := b.elemAddrs(idx, pS)[0]
	b.I("st.global.f32 [%s], %s;", sa, acc)
	b.L(end)
	return b.Build()
}

// attnAVCached is the decode-step probabilities·V GEMV:
// out[h*dh+d] = Σ_t probs[h*len+t] · cacheV[(h*maxSeq+t)*dh+d], writing
// the context row directly in merged [1, heads*dh] layout (a decode step
// needs no merge_heads permute). One thread per (head, dh) pair.
func attnAVCached() string {
	b := NewBuilder("attn_av_cached")
	pP, pV, pOut := b.PtrParam("pP"), b.PtrParam("pV"), b.PtrParam("pOut")
	pHeads, pDh := b.U32Param("pHeads"), b.U32Param("pDh")
	pMaxSeq, pLen := b.U32Param("pMaxSeq"), b.U32Param("pLen")
	end, idx, ext := b.guardTid(pHeads, pDh)
	dh := ext[1]
	h, d := b.divRem(idx, dh)
	ln := b.LoadU32(pLen)
	maxSeq := b.LoadU32(pMaxSeq)
	pB := b.LoadPtr(pP)
	vB := b.LoadPtr(pV)
	// probs row base = h*len; cache column walk starts at (h*maxSeq)*dh + d
	pi := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", pi, h, ln)
	vi := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", vi, h, maxSeq)
	b.I("mul.lo.u32 %s, %s, %s;", vi, vi, dh)
	b.I("add.u32 %s, %s, %s;", vi, vi, d)
	pa := b.ElemAddr(pB, pi, 4)
	va := b.ElemAddr(vB, vi, 4)
	rowStride := b.R(B64)
	b.I("mul.wide.u32 %s, %s, 4;", rowStride, dh)
	acc := b.MovF32(0)
	b.loop("AV_DOT", "av_done", "0", ln, "1", func(string) {
		vp, vv := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", vp, pa)
		b.I("ld.global.f32 %s, [%s];", vv, va)
		b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vp, vv, acc)
		b.I("add.u64 %s, %s, 4;", pa, pa)
		b.I("add.u64 %s, %s, %s;", va, va, rowStride)
	})
	oa := b.elemAddrs(idx, pOut)[0]
	b.I("st.global.f32 [%s], %s;", oa, acc)
	b.L(end)
	return b.Build()
}

// softmaxCausal is the causal-masked row softmax over x[rows, cols]:
// row r belongs to query position pos + (r % seq), so only the first
// pos + (r%seq) + 1 columns are attendable; masked columns are written
// as exact zeros (the downstream probabilities·V GEMM reads all cols).
// Same launch shape as softmax_forward: one 32-thread CTA per row.
func softmaxCausal() string {
	b := NewBuilder("softmax_causal")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pCols := b.U32Param("pCols")
	pSeq, pPos := b.U32Param("pSeq"), b.U32Param("pPos")
	sred := b.Shared("scmax", 32*4, 4)

	tid, row := b.laneAndRow()
	cols := b.LoadU32(pCols)
	seq := b.LoadU32(pSeq)
	pos := b.LoadU32(pPos)
	// vlen = pos + (row % seq) + 1: attendable prefix of this row
	vlen := b.R(B32)
	b.I("rem.u32 %s, %s, %s;", vlen, row, seq)
	b.I("add.u32 %s, %s, %s;", vlen, vlen, pos)
	b.I("add.u32 %s, %s, 1;", vlen, vlen)
	xB := b.LoadPtr(pX)
	yB := b.LoadPtr(pY)
	rowOff := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", rowOff, row, cols)
	sbase, slot := b.laneSlots(sred, tid)

	// row max over the attendable prefix
	best := b.laneMax("SC_MAX", "sc_max_end", tid, vlen, xB, rowOff)
	b.reduceShared("max", 32, tid, slot, best, b.NewLabel("rmx"), "rmx_end", "rmx_skip")
	rowMax := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", rowMax, sbase)
	b.I("bar.sync 0;")

	// row total of exp(x - max) over the attendable prefix
	log2e, sum := b.laneExpSum("SC_SUM", "sc_sum_end", tid, vlen, xB, rowOff, rowMax)
	b.reduceAdd32(tid, slot, sum)
	totalv := b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", totalv, sbase)

	// write all cols: exp(x-max)/total inside the prefix, exact 0 beyond
	zero := b.MovF32(0)
	b.loop("SC_WRITE", "sc_write_end", tid, cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, rowOff, i)
		ay := b.ElemAddr(yB, ei, 4)
		ev := b.expShifted(ax, rowMax, log2e)
		b.I("div.rn.f32 %s, %s, %s;", ev, ev, totalv)
		pvalid := b.R(Pred)
		b.I("setp.lt.u32 %s, %s, %s;", pvalid, i, vlen)
		b.I("selp.b32 %s, %s, %s, %s;", ev, ev, zero, pvalid)
		b.I("st.global.f32 [%s], %s;", ay, ev)
	})
	return b.Build()
}

// logitGemv computes the tied-embedding output head as a GEMV:
// logits[v] = Σ_d x[d] · table[v*dim+d] for the single final-layernorm
// activation row x[dim] against the embedding table [vocab, dim]. One
// thread per vocabulary entry.
func logitGemv() string {
	b := NewBuilder("logit_gemv")
	pX, pT, pL := b.PtrParam("pX"), b.PtrParam("pTable"), b.PtrParam("pLogits")
	pVocab, pDim := b.U32Param("pVocab"), b.U32Param("pDim")
	end, idx, _ := b.guardTid(pVocab)
	dim := b.LoadU32(pDim)
	xB := b.LoadPtr(pX)
	tB := b.LoadPtr(pT)
	ti := b.R(B32)
	b.I("mul.lo.u32 %s, %s, %s;", ti, idx, dim)
	xa := b.ElemAddr(xB, b.movZero(), 4)
	ta := b.ElemAddr(tB, ti, 4)
	acc := b.MovF32(0)
	b.loop("LG_DOT", "lg_done", "0", dim, "1", func(string) {
		vx, vt := b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", vx, xa)
		b.I("ld.global.f32 %s, [%s];", vt, ta)
		b.I("fma.rn.f32 %s, %s, %s, %s;", acc, vx, vt, acc)
		b.I("add.u64 %s, %s, 4;", xa, xa)
		b.I("add.u64 %s, %s, 4;", ta, ta)
	})
	la := b.elemAddrs(idx, pL)[0]
	b.I("st.global.f32 [%s], %s;", la, acc)
	b.L(end)
	return b.Build()
}

// movZero emits a u32 zero into a fresh register (helper for ElemAddr
// with index 0).
func (b *Builder) movZero() string {
	r := b.R(B32)
	b.I("mov.u32 %s, 0;", r)
	return r
}

// argmaxU32 writes the index of the largest of n floats as a u32 into
// out[outIdx] — the greedy-decode token selection, kept on the device so
// a whole generate chain needs no host synchronisation between steps.
// One 32-thread CTA; ties resolve to the lowest index (matching a
// first-strictly-greater CPU scan), via a shared-memory (value, index)
// reduction.
func argmaxU32() string {
	b := NewBuilder("argmax_u32")
	pX := b.PtrParam("pX")
	pN := b.U32Param("pN")
	pOut := b.PtrParam("pOut")
	pOutIdx := b.U32Param("pOutIdx")
	sval := b.Shared("sagv", 32*4, 4)
	sidx := b.Shared("sagi", 32*4, 4)

	tid := b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", tid)
	n := b.LoadU32(pN)
	xB := b.LoadPtr(pX)

	// strided scan: strictly-greater keeps the lowest index per lane
	best := b.MovF32(-3.4e38)
	bestIdx := b.R(B32)
	b.I("mov.u32 %s, 0;", bestIdx)
	b.loop("AG_SCAN", "ag_scan_end", tid, n, "32", func(i string) {
		ax := b.ElemAddr(xB, i, 4)
		v := b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, ax)
		pg := b.R(Pred)
		b.I("setp.gt.f32 %s, %s, %s;", pg, v, best)
		b.I("selp.b32 %s, %s, %s, %s;", best, v, best, pg)
		b.I("selp.b32 %s, %s, %s, %s;", bestIdx, i, bestIdx, pg)
	})

	vbase, ibase := b.R(B32), b.R(B32)
	b.I("mov.u32 %s, %s;", vbase, sval)
	b.I("mov.u32 %s, %s;", ibase, sidx)
	vslot, islot := b.R(B32), b.R(B32)
	b.I("mad.lo.s32 %s, %s, 4, %s;", vslot, tid, vbase)
	b.I("mad.lo.s32 %s, %s, 4, %s;", islot, tid, ibase)
	b.I("st.shared.f32 [%s], %s;", vslot, best)
	b.I("st.shared.u32 [%s], %s;", islot, bestIdx)
	b.I("bar.sync 0;")

	// (value, index) pair reduction: take the other lane's pair if its
	// value is strictly greater, or equal with a lower index
	step := b.R(B32)
	b.I("mov.u32 %s, 16;", step)
	rl := b.L("AG_RED")
	pz := b.R(Pred)
	rlEnd := b.NewLabel("ag_red_end")
	b.I("setp.eq.u32 %s, %s, 0;", pz, step)
	b.I("@%s bra %s;", pz, rlEnd)
	pact := b.R(Pred)
	skip := b.NewLabel("ag_skip")
	b.I("setp.ge.u32 %s, %s, %s;", pact, tid, step)
	b.I("@%s bra %s;", pact, skip)
	offr := b.R(B32)
	b.I("shl.b32 %s, %s, 2;", offr, step)
	vother, iother := b.R(B32), b.R(B32)
	b.I("add.u32 %s, %s, %s;", vother, vslot, offr)
	b.I("add.u32 %s, %s, %s;", iother, islot, offr)
	va, vb := b.R(F32), b.R(F32)
	ia, ib := b.R(B32), b.R(B32)
	b.I("ld.shared.f32 %s, [%s];", va, vslot)
	b.I("ld.shared.f32 %s, [%s];", vb, vother)
	b.I("ld.shared.u32 %s, [%s];", ia, islot)
	b.I("ld.shared.u32 %s, [%s];", ib, iother)
	pgt, peq, plt := b.R(Pred), b.R(Pred), b.R(Pred)
	b.I("setp.gt.f32 %s, %s, %s;", pgt, vb, va)
	b.I("setp.eq.f32 %s, %s, %s;", peq, vb, va)
	b.I("setp.lt.u32 %s, %s, %s;", plt, ib, ia)
	b.I("and.pred %s, %s, %s;", peq, peq, plt)
	b.I("or.pred %s, %s, %s;", pgt, pgt, peq)
	b.I("selp.b32 %s, %s, %s, %s;", va, vb, va, pgt)
	b.I("selp.b32 %s, %s, %s, %s;", ia, ib, ia, pgt)
	b.I("st.shared.f32 [%s], %s;", vslot, va)
	b.I("st.shared.u32 [%s], %s;", islot, ia)
	b.L(skip)
	b.I("bar.sync 0;")
	b.I("shr.u32 %s, %s, 1;", step, step)
	b.I("bra %s;", rl)
	b.L(rlEnd)

	// lane 0 writes the winning index
	end := b.NewLabel("end")
	p0 := b.R(Pred)
	b.I("setp.ne.u32 %s, %s, 0;", p0, tid)
	b.I("@%s bra %s;", p0, end)
	win := b.R(B32)
	b.I("ld.shared.u32 %s, [%s];", win, ibase)
	oB := b.LoadPtr(pOut)
	oi := b.LoadU32(pOutIdx)
	oa := b.ElemAddr(oB, oi, 4)
	b.I("st.global.u32 [%s], %s;", oa, win)
	b.L(end)
	return b.Build()
}
