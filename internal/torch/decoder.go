package torch

// KV-cached autoregressive decoder. TransformerDecoder reuses the
// encoder's weights and blocks but runs them causally: Prefill pushes the
// whole prompt through once (bulk-appending each layer's K/V into the
// cache), then every DecodeStep feeds back the previously generated token
// and attends over the growing cache with single-token GEMV kernels.
// Greedy argmax runs on the device and writes the chosen token id
// directly into the session's id buffer, so a whole generate chain is one
// long kernel sequence with no host round-trips — hundreds of tiny
// dependent launches per sequence, the regime the paper flags as the
// cycle-level simulator's worst case.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ref"
)

// TransformerDecoder is a causal view over the encoder weights: the same
// seed builds bit-identical parameters for both.
type TransformerDecoder struct {
	*TransformerEncoder
}

// NewTransformerDecoder builds the model with deterministic rng-seeded
// weights (identical to NewTransformerEncoder for the same seed).
func NewTransformerDecoder(dev *Device, rng *rand.Rand, cfg TransformerConfig) (*TransformerDecoder, error) {
	enc, err := NewTransformerEncoder(dev, rng, cfg)
	if err != nil {
		return nil, err
	}
	return &TransformerDecoder{TransformerEncoder: enc}, nil
}

// KVCacheBytes returns the modelled device footprint of one sequence's
// full KV cache: per layer a K and a V tensor of [Heads, MaxSeq, dh]
// float32 — the quantity the serving layer's admission control budgets.
func KVCacheBytes(cfg TransformerConfig) int {
	return cfg.Layers * 2 * cfg.MaxSeq * cfg.DModel * 4
}

// layerKV is one layer's K and V cache, head-major [Heads, MaxSeq, dh].
type layerKV struct {
	K *Tensor
	V *Tensor
}

// DecodeSession is one sequence's decode state: the per-layer KV caches,
// a device id buffer of MaxSeq+1 u32 slots (prompt, then generated
// tokens appended in place by the argmax kernel), and the cache length.
type DecodeSession struct {
	dec       *TransformerDecoder
	cache     []layerKV
	ids       uint64 // device u32 buffer, MaxSeq+1 entries
	Len       int    // cached positions (== consumed tokens)
	PromptLen int
	Generated int
}

// NewSession allocates the KV caches and uploads the prompt. The upload
// is a synchronous copy, so sessions must be created at an idle point,
// not in the middle of an asynchronous kernel chain.
func (d *TransformerDecoder) NewSession(prompt []int32) (*DecodeSession, error) {
	cfg := d.Cfg
	if len(prompt) < 1 {
		return nil, fmt.Errorf("torch: decode prompt must have at least 1 token")
	}
	if len(prompt) > cfg.MaxSeq {
		return nil, fmt.Errorf("torch: prompt length %d exceeds MaxSeq %d", len(prompt), cfg.MaxSeq)
	}
	if err := validateTokenIDs(prompt, cfg.Vocab); err != nil {
		return nil, err
	}
	dh := cfg.DModel / cfg.Heads
	s := &DecodeSession{dec: d, PromptLen: len(prompt)}
	for i := 0; i < cfg.Layers; i++ {
		k, err := d.Dev.Zeros(cfg.Heads, cfg.MaxSeq, dh)
		if err != nil {
			return nil, err
		}
		v, err := d.Dev.Zeros(cfg.Heads, cfg.MaxSeq, dh)
		if err != nil {
			return nil, err
		}
		s.cache = append(s.cache, layerKV{K: k, V: v})
	}
	addr, err := d.Dev.Ctx.Malloc(uint64(4 * (cfg.MaxSeq + 1)))
	if err != nil {
		return nil, err
	}
	s.ids = addr
	buf := make([]byte, 4*len(prompt))
	for i, id := range prompt {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	d.Dev.Ctx.MemcpyHtoD(addr, buf)
	return s, nil
}

// Allocations returns the session's device addresses — the per-layer
// K/V caches and the id buffer. The serving layer excludes these from
// its per-iteration transient frees while the session is resident in
// the batch.
func (s *DecodeSession) Allocations() []uint64 {
	var out []uint64
	for _, kv := range s.cache {
		out = append(out, kv.K.Ptr, kv.V.Ptr)
	}
	if s.ids != 0 {
		out = append(out, s.ids)
	}
	return out
}

// Free releases the session's device memory.
func (s *DecodeSession) Free() {
	for _, kv := range s.cache {
		kv.K.Free()
		kv.V.Free()
	}
	s.cache = nil
	if s.ids != 0 {
		_ = s.dec.Dev.Ctx.Free(s.ids)
		s.ids = 0
	}
}

// Tokens downloads the generated token ids. The caller must have drained
// the device (DeviceSynchronize) first.
func (s *DecodeSession) Tokens() []int32 {
	buf := make([]byte, 4*s.Generated)
	s.dec.Dev.Ctx.MemcpyDtoH(buf, s.ids+uint64(4*s.PromptLen))
	out := make([]int32, s.Generated)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// PrefillStep issues the prompt's full kernel chain on the handle's
// current stream: causal forward over all prompt tokens, bulk KV append
// per layer, then logit GEMV + argmax producing the first generated
// token. Issue-only — no synchronisation.
func (d *TransformerDecoder) PrefillStep(s *DecodeSession) error {
	if s.Len != 0 {
		return fmt.Errorf("torch: prefill on a session with %d cached positions", s.Len)
	}
	if err := d.stepDevice(s, s.PromptLen, 0); err != nil {
		return err
	}
	s.Len = s.PromptLen
	s.Generated = 1
	return nil
}

// DecodeStep issues one decode iteration: it consumes the most recently
// generated token (already in the device id buffer), extends every
// layer's KV cache by one position and writes the next token id. Issue-
// only — no synchronisation.
func (d *TransformerDecoder) DecodeStep(s *DecodeSession) error {
	if s.Len == 0 {
		return fmt.Errorf("torch: decode step before prefill")
	}
	if s.Len >= d.Cfg.MaxSeq {
		return fmt.Errorf("torch: KV cache full (%d positions)", s.Len)
	}
	if err := d.stepDevice(s, 1, s.Len); err != nil {
		return err
	}
	s.Len++
	s.Generated++
	return nil
}

// stepDevice runs seq tokens at positions pos..pos+seq-1 through the
// causal blocks — a block's phases with ForwardCached as its attention —
// and writes argmax(logits of the last row) to ids[pos+seq].
func (d *TransformerDecoder) stepDevice(s *DecodeSession, seq, pos int) error {
	cfg := d.Cfg
	dm := cfg.DModel
	x, err := d.embed(s.ids+uint64(4*pos), seq, pos)
	if err != nil {
		return err
	}
	for i, blk := range d.Blocks {
		n1, err := blk.Ln1.Forward(x)
		if err != nil {
			return err
		}
		att, err := blk.Attn.ForwardCached(n1, s.cache[i], pos, cfg.MaxSeq)
		if err != nil {
			return err
		}
		if x, err = blk.feedForward(x, att); err != nil {
			return err
		}
	}
	if x, err = d.Final.Forward(x); err != nil {
		return err
	}
	logits, err := d.Dev.NewTensor(cfg.Vocab)
	if err != nil {
		return err
	}
	lastRow := x.Ptr + uint64(4*(seq-1)*dm)
	if err := d.Dev.H.LogitGemv(lastRow, d.Embed.Table.W.Ptr, logits.Ptr, cfg.Vocab, dm); err != nil {
		return err
	}
	return d.Dev.H.ArgmaxU32(logits.Ptr, cfg.Vocab, s.ids, pos+seq)
}

// ForwardCached is causal self-attention over x[seq, DModel] with the
// layer's KV cache holding pos earlier positions: K/V projections of x
// are appended at rows pos..pos+seq-1, then each query row attends over
// the cache prefix. seq==1 (a decode step) takes the GEMV path — no head
// permutes, scores and context are single-token products against the
// cache; seq>1 (prefill) is Forward's attend phase reading keys and
// values from the cache, at cache stride MaxSeq·dh.
func (m *MultiHeadAttention) ForwardCached(x *Tensor, kv layerKV, pos, maxSeq int) (*Tensor, error) {
	seq := x.Dim(0)
	dh := m.headDim()
	cacheLen := pos + seq
	if cacheLen > maxSeq {
		return nil, fmt.Errorf("torch: cache length %d exceeds maxSeq %d", cacheLen, maxSeq)
	}
	h := m.Dev.H

	q, k, v, err := m.qkv(x)
	if err != nil {
		return nil, err
	}
	if err := h.KVCacheAppend(k.Ptr, kv.K.Ptr, seq, m.Heads, dh, maxSeq, pos); err != nil {
		return nil, err
	}
	if err := h.KVCacheAppend(v.Ptr, kv.V.Ptr, seq, m.Heads, dh, maxSeq, pos); err != nil {
		return nil, err
	}

	if seq == 1 {
		// decode step: [1, Heads*dh] is already [Heads, 1, dh]
		scale := float32(1 / math.Sqrt(float64(dh)))
		scores, err := m.Dev.NewTensor(m.Heads, cacheLen)
		if err != nil {
			return nil, err
		}
		if err := h.AttnScoresCached(q.Ptr, kv.K.Ptr, scores.Ptr, m.Heads, dh, maxSeq, cacheLen, scale); err != nil {
			return nil, err
		}
		probs, err := m.Dev.NewTensor(m.Heads, cacheLen)
		if err != nil {
			return nil, err
		}
		if err := h.SoftmaxCausalForward(scores.Ptr, probs.Ptr, m.Heads, cacheLen, 1, cacheLen-1); err != nil {
			return nil, err
		}
		ctx, err := m.Dev.NewTensor(1, m.Heads*dh)
		if err != nil {
			return nil, err
		}
		if err := h.AttnContextCached(probs.Ptr, kv.V.Ptr, ctx.Ptr, m.Heads, dh, maxSeq, cacheLen); err != nil {
			return nil, err
		}
		return m.Wo.apply(m.Dev, ctx)
	}

	qh, err := m.splitHeads(q)
	if err != nil {
		return nil, err
	}
	_, merged, err := m.attend(qh, kv.K, kv.V, cacheLen, maxSeq*dh, pos)
	if err != nil {
		return nil, err
	}
	return m.Wo.apply(m.Dev, merged)
}

// GenerateBatch greedy-decodes several prompts for n tokens each. With
// concurrent=true each sequence's whole prefill+decode kernel chain is
// issued on its own CUDA stream (Device.OnStreams, as ForwardBatch);
// otherwise everything serialises on the default stream. Sessions are
// created (synchronous uploads) before the first launch.
func (d *TransformerDecoder) GenerateBatch(prompts [][]int32, n int, concurrent bool) ([][]int32, error) {
	if n < 1 {
		return nil, fmt.Errorf("torch: generate count %d < 1", n)
	}
	sessions := make([]*DecodeSession, len(prompts))
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.Free()
			}
		}
	}()
	for i, p := range prompts {
		if len(p)+n-1 > d.Cfg.MaxSeq {
			return nil, fmt.Errorf("torch: prompt %d + %d generated tokens exceed MaxSeq %d",
				len(p), n, d.Cfg.MaxSeq)
		}
		s, err := d.NewSession(p)
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	err := d.Dev.OnStreams(len(sessions), concurrent, func(i int) error {
		err := d.PrefillStep(sessions[i])
		for j := 1; err == nil && j < n; j++ {
			err = d.DecodeStep(sessions[i])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	outs := make([][]int32, len(prompts))
	for i, s := range sessions {
		outs[i] = s.Tokens()
	}
	return outs, nil
}

// ForwardCPU is the host oracle of the causal forward: the encoder
// pipeline with causally masked attention. Returns the [len(ids),
// DModel] final activations.
func (d *TransformerDecoder) ForwardCPU(ids []int32) ([]float32, []int) {
	return d.forwardCPU(ids, true)
}

// GenerateCPU is the host oracle of Generate: greedy decode with a full
// causal re-forward per step (mathematically identical to KV caching).
func (d *TransformerDecoder) GenerateCPU(prompt []int32, n int) ([]int32, error) {
	if n < 1 {
		return nil, fmt.Errorf("torch: generate count %d < 1", n)
	}
	if len(prompt)+n-1 > d.Cfg.MaxSeq {
		return nil, fmt.Errorf("torch: prompt %d + %d generated tokens exceed MaxSeq %d",
			len(prompt), n, d.Cfg.MaxSeq)
	}
	if err := validateTokenIDs(prompt, d.Cfg.Vocab); err != nil {
		return nil, err
	}
	dm := d.Cfg.DModel
	table := d.Embed.Table.W.ToHost()
	ids := append([]int32(nil), prompt...)
	for i := 0; i < n; i++ {
		x, _ := d.ForwardCPU(ids)
		last := x[(len(ids)-1)*dm:]
		logits := ref.LogitGemv(last, table, d.Cfg.Vocab, dm)
		next := ref.Argmax(logits, 1, d.Cfg.Vocab)[0]
		ids = append(ids, int32(next))
	}
	return ids[len(prompt):], nil
}
