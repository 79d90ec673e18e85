package cudnn

// Transformer-inference primitives. Like the convolution entry points,
// each call launches one or more library kernels through the runtime; in
// performance mode with Handle.SetStream routing onto a non-default
// stream, whole forward passes queue asynchronously and overlap in the
// detailed timing model.

import "repro/internal/cudart"

// GemmStridedBatched computes C[b] = alpha*A[b]*B[b] + beta*C[b] for
// `batch` row-major slices at the given element strides (the
// cublasSgemmStridedBatched analog; grid.z selects the slice).
func (h *Handle) GemmStridedBatched(a, bm, cm uint64, m, n, k, strideA, strideB, strideC, batch int, alpha, beta float32) error {
	h.ctx.SetAPITag("cublasSgemmStridedBatched")
	return h.sgemm("sgemm_tiled", a, bm, cm, m, n, k, strideA, strideB, strideC, batch, alpha, beta)
}

// GemmNTStridedBatched computes C[b] = alpha*A[b]*B[b]ᵀ + beta*C[b] for
// row-major A[m,k], B[n,k], C[m,n] slices — the attention-score GEMM
// (Q·Kᵀ), batched over heads via grid.z.
func (h *Handle) GemmNTStridedBatched(a, bm, cm uint64, m, n, k, strideA, strideB, strideC, batch int, alpha, beta float32) error {
	h.ctx.SetAPITag("cublasSgemmStridedBatched")
	return h.sgemm("sgemm_nt_batched", a, bm, cm, m, n, k, strideA, strideB, strideC, batch, alpha, beta)
}

// LayerNormForward normalises each of the `rows` rows of x to zero mean
// and unit variance and applies the affine parameters gamma and beta
// (each `cols` long): y = (x-μ)/√(σ²+eps)·γ + β.
func (h *Handle) LayerNormForward(x, gamma, beta, y uint64, rows, cols int, eps float32) error {
	h.ctx.SetAPITag("cudnnLayerNormForward")
	p := cudart.NewParams().Ptr(x).Ptr(gamma).Ptr(beta).Ptr(y).
		U32(uint32(cols)).F32(eps)
	return h.launchRows("layernorm_forward", rows, cols, p)
}

// GeluForward applies the tanh-form GELU activation over n elements.
func (h *Handle) GeluForward(x, y uint64, n int) error {
	h.ctx.SetAPITag("cudnnActivationForward")
	return h.launch1D("gelu_forward", n, 256, cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(n)))
}

// ResidualAdd computes y[i] = x[i] + r[i] over n elements (the fused
// skip-connection add).
func (h *Handle) ResidualAdd(x, r, y uint64, n int) error {
	h.ctx.SetAPITag("cudnnOpTensor")
	return h.launch1D("residual_add", n, 256,
		cudart.NewParams().Ptr(x).Ptr(r).Ptr(y).U32(uint32(n)))
}

// SplitHeads permutes a [seq, heads*dh] activation into [heads, seq, dh].
func (h *Handle) SplitHeads(x, y uint64, seq, heads, dh int) error {
	h.ctx.SetAPITag("cudnnTransformTensor")
	n := seq * heads * dh
	return h.launch1D("split_heads", n, 256,
		cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(seq)).U32(uint32(heads)).U32(uint32(dh)))
}

// MergeHeads permutes [heads, seq, dh] back into [seq, heads*dh].
func (h *Handle) MergeHeads(x, y uint64, seq, heads, dh int) error {
	h.ctx.SetAPITag("cudnnTransformTensor")
	n := seq * heads * dh
	return h.launch1D("merge_heads", n, 256,
		cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(seq)).U32(uint32(heads)).U32(uint32(dh)))
}

// EmbeddingLookup gathers out[i,:] = table[ids[i],:] for `rows` u32 ids
// into a [rows, cols] output.
func (h *Handle) EmbeddingLookup(table, ids, out uint64, rows, cols int) error {
	h.ctx.SetAPITag("embeddingLookup")
	n := rows * cols
	return h.launch1D("embedding_lookup", n, 256,
		cudart.NewParams().Ptr(table).Ptr(ids).Ptr(out).U32(uint32(rows)).U32(uint32(cols)))
}
