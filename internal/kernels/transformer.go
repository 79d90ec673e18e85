package kernels

// Transformer-inference kernels: the strided-batched GEMM pair that
// carries multi-head attention (plain NN via sgemm_tiled's grid.z path,
// NT — C = A·Bᵀ — below), row-wise layer normalisation, the tanh-form
// GELU activation, fused residual addition, the head split/merge
// permutes, and the embedding-table gather. These are the many small
// heterogeneous kernels a transformer encoder issues per layer — the
// kernel-population shape the paper's stream-concurrency analysis is
// about, now exercised by the detailed engine's multi-grid dispatcher.

// sgemmNTBatched is sgemm_nt_batched: C = alpha*A*Bᵀ + beta*C for
// row-major A[M,K], B[N,K], C[M,N] — the Q·Kᵀ attention-score kernel, one
// attention head per grid.z slice.
func sgemmNTBatched() string { return sgemm("sgemm_nt_batched", false, true) }

// layerNormForward normalises each row of x[rows, cols] to zero mean and
// unit variance, then applies the learned affine: y = (x-μ)/√(σ²+ε)·γ+β.
// One 32-thread CTA per row (ctaid.x = row), two shared-memory reductions
// (sum, then sum of squared deviations), like the softmax kernel.
func layerNormForward() string {
	b := NewBuilder("layernorm_forward")
	pX, pG, pBt, pY := b.PtrParam("pX"), b.PtrParam("pGamma"), b.PtrParam("pBeta"), b.PtrParam("pY")
	pCols := b.U32Param("pCols")
	pEps := b.F32Param("pEps")
	sred := b.Shared("sln", 32*4, 4)

	r := b.rowStart(pCols, pX, pG, pBt, pY)
	xB, gB, btB, yB := r.ptr[0], r.ptr[1], r.ptr[2], r.ptr[3]
	sbase, slot := b.laneSlots(sred, r.tid)

	// passes 1 and 2: row mean and inverse standard deviation
	mean, inv, _ := b.rowMeanInv("LN", r.tid, r.cols, xB, r.rowOff, sbase, slot, pEps)

	// pass 3: write y = (x - mean) * inv * gamma[col] + beta[col]
	b.loop("LN_WRITE", "ln_write_end", r.tid, r.cols, "32", func(i string) {
		ei, ax := b.rowElem(xB, r.rowOff, i)
		ag := b.ElemAddr(gB, i, 4)
		ab := b.ElemAddr(btB, i, 4)
		ay := b.ElemAddr(yB, ei, 4)
		v, vg, vb := b.R(F32), b.R(F32), b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, ax)
		b.I("ld.global.f32 %s, [%s];", vg, ag)
		b.I("ld.global.f32 %s, [%s];", vb, ab)
		b.I("sub.f32 %s, %s, %s;", v, v, mean)
		b.I("mul.f32 %s, %s, %s;", v, v, inv)
		b.I("fma.rn.f32 %s, %s, %s, %s;", v, v, vg, vb)
		b.I("st.global.f32 [%s], %s;", ay, v)
	})
	return b.Build()
}

// geluTanh emits th = tanh(c0·(v + c1·x3)), the inner term of the
// tanh-form GELU for input v with x3 = v³: tanh is synthesised from ex2
// (tanh z = (2^(2z·log₂e) - 1)/(2^(2z·log₂e) + 1)) with the argument
// clamped to ±10 so the exponential cannot overflow to a NaN quotient.
// Forward and backward share it so they agree on the saturated tails;
// the 1 and 0.5 constant registers it makes are returned for reuse.
func geluTanh(b *Builder, v, x3, c0, c1 string) (th, one, half string) {
	z := b.R(F32)
	b.I("fma.rn.f32 %s, %s, %s, %s;", z, c1, x3, v)
	b.I("mul.f32 %s, %s, %s;", z, z, c0)
	hi := b.MovF32(10)
	lo := b.MovF32(-10)
	b.I("min.f32 %s, %s, %s;", z, z, hi)
	b.I("max.f32 %s, %s, %s;", z, z, lo)
	twoLog2e := b.MovF32(2.8853900817779268) // 2*log2(e)
	e := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", e, z, twoLog2e)
	b.I("ex2.approx.f32 %s, %s;", e, e)
	one = b.MovF32(1)
	num, den := b.R(F32), b.R(F32)
	b.I("sub.f32 %s, %s, %s;", num, e, one)
	b.I("add.f32 %s, %s, %s;", den, e, one)
	th = b.R(F32)
	b.I("div.rn.f32 %s, %s, %s;", th, num, den)
	half = b.MovF32(0.5)
	return th, one, half
}

// geluForward computes the tanh-form GELU over n elements:
// y = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), tanh as in geluTanh.
func geluForward() string {
	b := NewBuilder("gelu_forward")
	pX, pY := b.PtrParam("pX"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pX, pY)
	ax, ay := a[0], a[1]
	v := b.R(F32)
	b.I("ld.global.f32 %s, [%s];", v, ax)
	c0 := b.MovF32(0.7978845608028654) // sqrt(2/pi)
	c1 := b.MovF32(0.044715)
	x3 := b.R(F32)
	b.I("mul.f32 %s, %s, %s;", x3, v, v)
	b.I("mul.f32 %s, %s, %s;", x3, x3, v)
	th, one, half := geluTanh(b, v, x3, c0, c1)
	out := b.R(F32)
	b.I("add.f32 %s, %s, %s;", out, th, one)
	b.I("mul.f32 %s, %s, %s;", out, out, v)
	b.I("mul.f32 %s, %s, %s;", out, out, half)
	b.I("st.global.f32 [%s], %s;", ay, out)
	b.L(end)
	return b.Build()
}

// residualAdd computes y[i] = x[i] + r[i] — the skip-connection add,
// fused into one pass (unlike accumulate_add it does not read y).
func residualAdd() string {
	b := NewBuilder("residual_add")
	pX, pR, pY := b.PtrParam("pX"), b.PtrParam("pR"), b.PtrParam("pY")
	pN := b.U32Param("pN")
	end, idx, _ := b.guardTid(pN)
	a := b.elemAddrs(idx, pX, pR, pY)
	ax, ar, ay := a[0], a[1], a[2]
	vx, vr := b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", vx, ax)
	b.I("ld.global.f32 %s, [%s];", vr, ar)
	b.I("add.f32 %s, %s, %s;", vx, vx, vr)
	b.I("st.global.f32 [%s], %s;", ay, vx)
	b.L(end)
	return b.Build()
}

// splitHeads permutes a [seq, heads*dh] activation into per-head
// [heads, seq, dh] layout: out[(h*S+s)*dh+d] = in[(s*H+h)*dh+d]. One
// thread per element, div/rem index decomposition on the output index.
func splitHeads() string { return permuteHeads("split_heads", 0, 1) }

// mergeHeads is the inverse permute, [heads, seq, dh] back to
// [seq, heads*dh]: out[(s*H+h)*dh+d] = in[(h*S+s)*dh+d].
func mergeHeads() string { return permuteHeads("merge_heads", 1, 0) }

// permuteHeads emits a permute between the [seq, heads, dh] and
// [heads, seq, dh] layouts. Of the extents ext = (seq, heads, dh), the
// output's outer axis is ext[outer] and its middle one ext[inner]; one
// thread per output element copies the input element with the two
// swapped.
func permuteHeads(name string, inner, outer int) string {
	b := NewBuilder(name)
	pIn, pOut := b.PtrParam("pIn"), b.PtrParam("pOut")
	pSeq, pHeads, pDh := b.U32Param("pSeq"), b.U32Param("pHeads"), b.U32Param("pDh")
	end, idx, ext := b.guardTid(pSeq, pHeads, pDh)
	_, _, _, src := b.headIndex(idx, ext[inner], ext[outer], ext[2])
	b.copyElem(pIn, pOut, src, idx)
	b.L(end)
	return b.Build()
}

// headIndex decomposes the flat index idx over [outer, inner, dh] into
// (o, i, d) and emits the index (i*outer + o)*dh + d of the same element
// in the [inner, outer, dh] layout.
func (b *Builder) headIndex(idx, inner, outer, dh string) (d, i, o, src string) {
	d, t := b.remDiv(idx, dh)
	i, o = b.remDiv(t, inner)
	src = b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", src, i, outer, o)
	b.I("mul.lo.u32 %s, %s, %s;", src, src, dh)
	b.I("add.u32 %s, %s, %s;", src, src, d)
	return d, i, o, src
}

// embeddingLookup gathers rows of table[vocab, cols] selected by the u32
// ids buffer: out[i, j] = table[ids[i], j]. One thread per output element.
func embeddingLookup() string {
	b := NewBuilder("embedding_lookup")
	pT, pIds, pOut := b.PtrParam("pTable"), b.PtrParam("pIds"), b.PtrParam("pOut")
	pRows, pCols := b.U32Param("pRows"), b.U32Param("pCols")
	end, idx, src := b.tokenRow(pRows, pCols, pIds)
	b.copyElem(pT, pOut, src, idx)
	b.L(end)
	return b.Build()
}

// tokenRow is the prologue of the embedding kernels, one thread per
// element idx of a [rows, cols] activation (the u32 parameters pRows and
// pCols): it loads the token id of the element's row from the u32 buffer
// pIds and emits id*cols + col, the flat index of the table element the
// element pairs with.
func (b *Builder) tokenRow(pRows, pCols, pIds string) (end, idx, tableIdx string) {
	end, idx, ext := b.guardTid(pRows, pCols)
	row, col := b.divRem(idx, ext[1])
	aid := b.elemAddrs(row, pIds)[0]
	id := b.R(B32)
	b.I("ld.global.u32 %s, [%s];", id, aid)
	return end, idx, b.flatIndex(id, ext[1], col)
}
