package cudnn

// Transformer training primitives. Each entry point launches one train-
// module kernel; the gradient entry points follow cuDNN's backward
// naming. The layernorm and embedding backward kernels accumulate
// parameter gradients with global atomics, so their gradient buffers
// must be zeroed (or hold the running accumulation) before the call.

import "repro/internal/cudart"

// GemmTNStridedBatched computes C[b] = alpha*A[b]ᵀ*B[b] + beta*C[b] for
// row-major A[k,m], B[k,n], C[m,n] slices — the weight-gradient GEMM
// (dW = xᵀ·dy with batch 1, per-head dK/dV with batch = heads).
func (h *Handle) GemmTNStridedBatched(a, bm, cm uint64, m, n, k, strideA, strideB, strideC, batch int, alpha, beta float32) error {
	h.ctx.SetAPITag("cublasSgemmStridedBatched")
	return h.sgemm("sgemm_tn_batched", a, bm, cm, m, n, k, strideA, strideB, strideC, batch, alpha, beta)
}

// LayerNormBackward computes dx for x[rows, cols] and accumulates the
// affine-parameter gradients: dgamma[j] += Σ_r dy·x̂, dbeta[j] += Σ_r dy
// (global atomics — zero the buffers first unless accumulating).
func (h *Handle) LayerNormBackward(x, gamma, dy, dx, dgamma, dbeta uint64, rows, cols int, eps float32) error {
	h.ctx.SetAPITag("cudnnLayerNormBackward")
	p := cudart.NewParams().Ptr(x).Ptr(gamma).Ptr(dy).Ptr(dx).Ptr(dgamma).Ptr(dbeta).
		U32(uint32(cols)).F32(eps)
	return h.launchRows("layernorm_backward", rows, cols, p)
}

// GeluBackward computes dx = dy·GELU'(x) over n elements.
func (h *Handle) GeluBackward(x, dy, dx uint64, n int) error {
	h.ctx.SetAPITag("cudnnActivationBackward")
	return h.launch1D("gelu_backward", n, 256,
		cudart.NewParams().Ptr(x).Ptr(dy).Ptr(dx).U32(uint32(n)))
}

// SoftmaxBackward computes dx[r,j] = p[r,j]·(dp[r,j] - Σ_k dp[r,k]·p[r,k])
// from the forward softmax output p[rows, cols].
func (h *Handle) SoftmaxBackward(probs, dprobs, dx uint64, rows, cols int) error {
	h.ctx.SetAPITag("cudnnSoftmaxBackward")
	p := cudart.NewParams().Ptr(probs).Ptr(dprobs).Ptr(dx).U32(uint32(cols))
	return h.launchRows("softmax_backward", rows, cols, p)
}

// SoftmaxXentBackward fuses the loss head on raw logits[rows, cols]:
// dx = (softmax(logits) - onehot(labels))/rows and per-row loss
// -log softmax[label] into loss[rows].
func (h *Handle) SoftmaxXentBackward(logits, labels, dx, loss uint64, rows, cols int) error {
	h.ctx.SetAPITag("cudnnSoftmaxXentBackward")
	p := cudart.NewParams().Ptr(logits).Ptr(labels).Ptr(dx).Ptr(loss).
		U32(uint32(cols)).U32(uint32(rows))
	return h.launchRows("softmax_xent_backward", rows, cols, p)
}

// AccumulateAdd computes y[i] += x[i] over n elements — gradient
// accumulation across residual branches and the positional table.
func (h *Handle) AccumulateAdd(x, y uint64, n int) error {
	h.ctx.SetAPITag("cublasSaxpy")
	return h.launch1D("accumulate_add", n, 256,
		cudart.NewParams().Ptr(x).Ptr(y).U32(uint32(n)))
}

// EmbeddingBackward scatter-adds dy[rows, cols] into dtable by token id
// with global atomics: dtable[ids[i], j] += dy[i, j].
func (h *Handle) EmbeddingBackward(dy, ids, dtable uint64, rows, cols int) error {
	h.ctx.SetAPITag("embeddingBackward")
	n := rows * cols
	return h.launch1D("embedding_backward", n, 256,
		cudart.NewParams().Ptr(dy).Ptr(ids).Ptr(dtable).U32(uint32(rows)).U32(uint32(cols)))
}
