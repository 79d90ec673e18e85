package cudnn

// KV-cached autoregressive-decode primitives. Each decode step issues a
// short chain of these tiny launches per layer — the many-small-kernel
// population the paper flags as the simulator's worst case — so like the
// transformer entry points they all route through the handle's current
// stream and queue asynchronously in performance mode.

import (
	"repro/internal/cudart"
	"repro/internal/exec"
)

// KVCacheAppend scatters the [seq, heads*dh] key or value projection
// into the head-major cache [heads, maxSeq, dh] at row offset pos
// (seq=1 for a decode step, seq=P for the prefill bulk append).
func (h *Handle) KVCacheAppend(src, cache uint64, seq, heads, dh, maxSeq, pos int) error {
	h.ctx.SetAPITag("kvCacheAppend")
	n := seq * heads * dh
	p := cudart.NewParams().Ptr(src).Ptr(cache).
		U32(uint32(seq)).U32(uint32(heads)).U32(uint32(dh)).
		U32(uint32(maxSeq)).U32(uint32(pos))
	return h.launch1D("kv_cache_append", n, 256, p)
}

// AttnScoresCached computes the decode-step attention scores
// scores[h*cacheLen+t] = scale·(q[h]·cacheK[h,t]) for one query token
// against the first cacheLen cache rows.
func (h *Handle) AttnScoresCached(q, cacheK, scores uint64, heads, dh, maxSeq, cacheLen int, scale float32) error {
	h.ctx.SetAPITag("attnScoresCached")
	n := heads * cacheLen
	p := cudart.NewParams().Ptr(q).Ptr(cacheK).Ptr(scores).
		U32(uint32(heads)).U32(uint32(dh)).
		U32(uint32(maxSeq)).U32(uint32(cacheLen)).F32(scale)
	return h.launch1D("attn_qk_cached", n, 128, p)
}

// SoftmaxCausalForward computes the causal-masked row softmax of
// x[rows, cols]: row r attends to the first pos + (r%seq) + 1 columns
// and masked columns are written as exact zeros. One 32-thread CTA per
// row, like SoftmaxForward.
func (h *Handle) SoftmaxCausalForward(x, y uint64, rows, cols, seq, pos int) error {
	h.ctx.SetAPITag("softmaxCausalForward")
	p := cudart.NewParams().Ptr(x).Ptr(y).
		U32(uint32(cols)).U32(uint32(seq)).U32(uint32(pos))
	return h.launchRows("softmax_causal", rows, cols, p)
}

// AttnContextCached computes the decode-step context row
// out[h*dh+d] = Σ_t probs[h*cacheLen+t]·cacheV[h,t,d], written directly
// in merged [1, heads*dh] layout.
func (h *Handle) AttnContextCached(probs, cacheV, out uint64, heads, dh, maxSeq, cacheLen int) error {
	h.ctx.SetAPITag("attnContextCached")
	n := heads * dh
	p := cudart.NewParams().Ptr(probs).Ptr(cacheV).Ptr(out).
		U32(uint32(heads)).U32(uint32(dh)).
		U32(uint32(maxSeq)).U32(uint32(cacheLen))
	return h.launch1D("attn_av_cached", n, 128, p)
}

// LogitGemv computes logits[v] = x·table[v,:] for the single activation
// row x[dim] against the tied embedding table [vocab, dim].
func (h *Handle) LogitGemv(x, table, logits uint64, vocab, dim int) error {
	h.ctx.SetAPITag("logitGemv")
	p := cudart.NewParams().Ptr(x).Ptr(table).Ptr(logits).
		U32(uint32(vocab)).U32(uint32(dim))
	return h.launch1D("logit_gemv", vocab, 128, p)
}

// ArgmaxU32 writes the index of the largest of the n floats at x as a
// u32 into out[outIdx] — greedy token selection kept on the device so a
// generate chain needs no host round-trip between steps.
func (h *Handle) ArgmaxU32(x uint64, n int, out uint64, outIdx int) error {
	h.ctx.SetAPITag("argmaxU32")
	if n == 0 {
		return nil
	}
	p := cudart.NewParams().Ptr(x).U32(uint32(n)).Ptr(out).U32(uint32(outIdx))
	return h.launch("argmax_u32", exec.Dim3{X: 1}, exec.Dim3{X: 32}, p)
}
