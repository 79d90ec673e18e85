package torch

// Transformer modules: LayerNorm, GELU, multi-head attention, the pre-LN
// encoder block, the embedding table, and a small encoder model able to
// overlap per-sequence forward passes on CUDA streams. Every module
// carries the same ForwardCPU self-check oracle contract as the
// convolutional layers, and, unlike them, a Backward against the train
// kernel module. Forward caches activation *pointers* only — it
// allocates nothing beyond what inference always allocated, so
// inference-path device addresses (and therefore the pinned golden
// timing stats) are unchanged. Gradient buffers are
// allocated lazily by EnsureGrads after model construction; Backward on
// a parameter without one fails loudly.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cudnn"
	"repro/internal/ref"
)

// gradsRequired rejects a Backward call on parameters whose gradient
// buffers have not been allocated (EnsureGrads was never run).
func gradsRequired(ps ...*Param) error {
	for _, p := range ps {
		if p.Grad == nil {
			return fmt.Errorf("torch: parameter %s has no gradient buffer; call EnsureGrads before training", p.Name)
		}
	}
	return nil
}

// validateTokenIDs rejects ids outside [0, vocab) before they reach the
// device: the gather kernel does no bounds check, and an out-of-range id
// would silently read past the table (and panic the CPU oracle).
func validateTokenIDs(ids []int32, vocab int) error {
	for i, id := range ids {
		if id < 0 || int(id) >= vocab {
			return fmt.Errorf("torch: token id %d at position %d outside vocabulary [0, %d)", id, i, vocab)
		}
	}
	return nil
}

func onesSlice(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// LayerNorm normalises the trailing dimension of a [rows, Dim] tensor.
type LayerNorm struct {
	Dev   *Device
	Dim   int
	Eps   float32
	Gamma *Param
	Beta  *Param
	lastX *Tensor
}

// NewLayerNorm builds a layer norm with γ=1, β=0.
func NewLayerNorm(dev *Device, dim int) (*LayerNorm, error) {
	g, err := dev.FromHost(onesSlice(dim), dim)
	if err != nil {
		return nil, err
	}
	b, err := dev.Zeros(dim)
	if err != nil {
		return nil, err
	}
	return &LayerNorm{Dev: dev, Dim: dim, Eps: 1e-5,
		Gamma: &Param{W: g, Name: "ln.gamma"},
		Beta:  &Param{W: b, Name: "ln.beta"}}, nil
}

// Forward implements Module.
func (l *LayerNorm) Forward(x *Tensor) (*Tensor, error) {
	rows := x.Count() / l.Dim
	y, err := l.Dev.NewTensor(x.Shape...)
	if err != nil {
		return nil, err
	}
	if err := l.Dev.H.LayerNormForward(x.Ptr, l.Gamma.W.Ptr, l.Beta.W.Ptr, y.Ptr, rows, l.Dim, l.Eps); err != nil {
		return nil, err
	}
	l.lastX = x
	return y, nil
}

// Backward computes dx from the cached input, with dgamma and
// dbeta accumulated into the parameter gradients.
func (l *LayerNorm) Backward(dy *Tensor) (*Tensor, error) {
	if err := gradsRequired(l.Gamma, l.Beta); err != nil {
		return nil, err
	}
	rows := dy.Count() / l.Dim
	dx, err := l.Dev.NewTensor(dy.Shape...)
	if err != nil {
		return nil, err
	}
	if err := l.Dev.H.LayerNormBackward(l.lastX.Ptr, l.Gamma.W.Ptr, dy.Ptr, dx.Ptr,
		l.Gamma.Grad.Ptr, l.Beta.Grad.Ptr, rows, l.Dim, l.Eps); err != nil {
		return nil, err
	}
	return dx, nil
}

// Params lists the trainable parameters.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// ForwardCPU implements Module: the host model's layer norm.
func (l *LayerNorm) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	return hostLN(snapshot(l.Params())).forward(x, l.Eps), shape
}

// GELU is the tanh-form GELU activation.
type GELU struct {
	Dev   *Device
	lastX *Tensor
}

// Forward implements Module.
func (g *GELU) Forward(x *Tensor) (*Tensor, error) {
	y, err := g.Dev.NewTensor(x.Shape...)
	if err != nil {
		return nil, err
	}
	if err := g.Dev.H.GeluForward(x.Ptr, y.Ptr, x.Count()); err != nil {
		return nil, err
	}
	g.lastX = x
	return y, nil
}

// Backward computes dx = dy·GELU'(x) from the cached input.
func (g *GELU) Backward(dy *Tensor) (*Tensor, error) {
	dx, err := g.Dev.NewTensor(dy.Shape...)
	if err != nil {
		return nil, err
	}
	if err := g.Dev.H.GeluBackward(g.lastX.Ptr, dy.Ptr, dx.Ptr, dy.Count()); err != nil {
		return nil, err
	}
	return dx, nil
}

// ForwardCPU implements Module.
func (g *GELU) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	return ref.Gelu(x), shape
}

// projection is one [in, out] dense weight + bias applied with the tiled
// SGEMM kernel (one launch per matrix, unlike Linear's per-row GEMV —
// transformer projections are batched over the whole sequence). It
// carries its own dimensions; the row count comes with the input.
type projection struct {
	in, out int
	W       *Param
	B       *Param
}

func newProjection(dev *Device, rng *rand.Rand, in, out int, name string) (*projection, error) {
	w, err := dev.NewTensor(in, out)
	if err != nil {
		return nil, err
	}
	b, err := dev.Zeros(out)
	if err != nil {
		return nil, err
	}
	w.RandInit(rng, float32(math.Sqrt(2.0/float64(in))))
	return &projection{in: in, out: out,
		W: &Param{W: w, Name: name + ".weight"},
		B: &Param{W: b, Name: name + ".bias"},
	}, nil
}

// apply computes y = x·W + b for x[rows, in] on the device.
func (p *projection) apply(dev *Device, x *Tensor) (*Tensor, error) {
	rows := x.Count() / p.in
	y, err := dev.NewTensor(rows, p.out)
	if err != nil {
		return nil, err
	}
	if err := dev.H.Gemm(x.Ptr, p.W.W.Ptr, y.Ptr, rows, p.out, p.in, 1, 0); err != nil {
		return nil, err
	}
	yd := cudnn.TensorDesc{N: rows, C: p.out, H: 1, W: 1}
	if err := dev.H.AddTensor(p.B.W.Ptr, y.Ptr, yd); err != nil {
		return nil, err
	}
	return y, nil
}

// backward computes dx = dy·Wᵀ and accumulates dW += xᵀ·dy and
// db += Σ_rows dy, where x is the cached forward input of this
// projection.
func (p *projection) backward(dev *Device, x, dy *Tensor) (*Tensor, error) {
	if err := gradsRequired(p.W, p.B); err != nil {
		return nil, err
	}
	rows, in, out := x.Count()/p.in, p.in, p.out
	dx, err := dev.NewTensor(rows, in)
	if err != nil {
		return nil, err
	}
	// dx[rows,in] = dy[rows,out] · W[in,out]ᵀ
	if err := dev.H.GemmNTStridedBatched(dy.Ptr, p.W.W.Ptr, dx.Ptr,
		rows, in, out, rows*out, in*out, rows*in, 1, 1, 0); err != nil {
		return nil, err
	}
	// dW[in,out] += x[rows,in]ᵀ · dy[rows,out]
	if err := dev.H.GemmTNStridedBatched(x.Ptr, dy.Ptr, p.W.Grad.Ptr,
		in, out, rows, rows*in, rows*out, in*out, 1, 1, 1); err != nil {
		return nil, err
	}
	// db[out] += dy[rows,out]ᵀ · ones[rows]
	ones, err := dev.FromHost(onesSlice(rows), rows)
	if err != nil {
		return nil, err
	}
	defer ones.Free()
	if err := dev.H.GemvT(dy.Ptr, ones.Ptr, p.B.Grad.Ptr, rows, out, 1, 1); err != nil {
		return nil, err
	}
	return dx, nil
}

// MultiHeadAttention is scaled dot-product self-attention over a
// [seq, DModel] activation: per-head Q·Kᵀ via the NT strided-batched
// GEMM, row-softmax, probabilities·V via the NN strided-batched GEMM,
// with split/merge head permutes and four dense projections. Heads is
// the number of heads computed here — all of them, or a tensor-parallel
// rank's share, in which case q/k/v/out hold that rank's columns.
type MultiHeadAttention struct {
	Dev   *Device
	Heads int
	Wq    *projection
	Wk    *projection
	Wv    *projection
	Wo    *projection
	// forward activation cache (pointers only) for Backward
	lastX   *Tensor
	lastSeq int
	qh, kh  *Tensor
	vh      *Tensor
	probs   *Tensor
	merged  *Tensor
}

// NewMultiHeadAttention builds the four projections; dModel must divide
// evenly into heads.
func NewMultiHeadAttention(dev *Device, rng *rand.Rand, heads, dModel int) (*MultiHeadAttention, error) {
	if dModel%heads != 0 {
		return nil, fmt.Errorf("torch: dModel %d not divisible by %d heads", dModel, heads)
	}
	m := &MultiHeadAttention{Dev: dev, Heads: heads}
	var err error
	for _, p := range []struct {
		dst  **projection
		name string
	}{{&m.Wq, "attn.q"}, {&m.Wk, "attn.k"}, {&m.Wv, "attn.v"}, {&m.Wo, "attn.out"}} {
		if *p.dst, err = newProjection(dev, rng, dModel, dModel, p.name); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// The forward chain below is spelled out once, as phases, and issued on
// three schedules: Forward (the encoder, back to back), ForwardCached
// (the KV-cached decoder) and TPShard (one phase per collective). Every
// phase allocates its tensors and launches in a fixed order; that order
// is the model's device addresses, replay signatures and modelled
// cycles, pinned by TestLaunchChainPinned.

// headDim is the per-head width dh.
func (m *MultiHeadAttention) headDim() int { return m.Wq.out / m.Heads }

// qkv projects x[seq, DModel] into queries, keys and values, each
// [seq, Heads·dh].
func (m *MultiHeadAttention) qkv(x *Tensor) (q, k, v *Tensor, err error) {
	if q, err = m.Wq.apply(m.Dev, x); err != nil {
		return nil, nil, nil, err
	}
	if k, err = m.Wk.apply(m.Dev, x); err != nil {
		return nil, nil, nil, err
	}
	if v, err = m.Wv.apply(m.Dev, x); err != nil {
		return nil, nil, nil, err
	}
	return q, k, v, nil
}

// splitHeads permutes x[seq, Heads·dh] into a fresh per-head
// [Heads, seq, dh] tensor.
func (m *MultiHeadAttention) splitHeads(x *Tensor) (*Tensor, error) {
	seq, dh := x.Dim(0), m.headDim()
	t, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, err
	}
	if err := m.Dev.H.SplitHeads(x.Ptr, t.Ptr, seq, m.Heads, dh); err != nil {
		return nil, err
	}
	return t, nil
}

// bidirectional is attend's pos for unmasked attention.
const bidirectional = -1

// attend is the attention core: per-head queries qh[Heads, seq, dh]
// against kvLen key and value rows per head, one head's rows kvStride
// floats from the next's (seq·dh for freshly split heads, MaxSeq·dh
// inside a KV cache). scores[h] = Qh·Khᵀ/sqrt(dh), row softmax,
// context[h] = probs·Vh, merged back to [seq, Heads·dh]. With pos >= 0
// the softmax is causal — query row i sits at position pos+i and sees
// keys 0..pos+i. probs is returned for Backward.
func (m *MultiHeadAttention) attend(qh, k, v *Tensor, kvLen, kvStride, pos int) (probs, merged *Tensor, err error) {
	seq, dh := qh.Dim(1), m.headDim()
	h := m.Dev.H
	scores, err := m.Dev.NewTensor(m.Heads, seq, kvLen)
	if err != nil {
		return nil, nil, err
	}
	scale := invSqrt(dh)
	if err := h.GemmNTStridedBatched(qh.Ptr, k.Ptr, scores.Ptr,
		seq, kvLen, dh, seq*dh, kvStride, seq*kvLen, m.Heads, scale, 0); err != nil {
		return nil, nil, err
	}
	if probs, err = m.Dev.NewTensor(m.Heads, seq, kvLen); err != nil {
		return nil, nil, err
	}
	if pos < 0 {
		err = h.SoftmaxForward(scores.Ptr, probs.Ptr, m.Heads*seq, kvLen)
	} else {
		err = h.SoftmaxCausalForward(scores.Ptr, probs.Ptr, m.Heads*seq, kvLen, seq, pos)
	}
	if err != nil {
		return nil, nil, err
	}
	ctxh, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, nil, err
	}
	if err := h.GemmStridedBatched(probs.Ptr, v.Ptr, ctxh.Ptr,
		seq, dh, kvLen, seq*kvLen, kvStride, seq*dh, m.Heads, 1, 0); err != nil {
		return nil, nil, err
	}
	if merged, err = m.Dev.NewTensor(seq, m.Heads*dh); err != nil {
		return nil, nil, err
	}
	if err := h.MergeHeads(ctxh.Ptr, merged.Ptr, seq, m.Heads, dh); err != nil {
		return nil, nil, err
	}
	return probs, merged, nil
}

// context is unmasked self-attention up to the merged per-head context
// [seq, Heads·dh] — everything before the output projection.
func (m *MultiHeadAttention) context(x *Tensor) (*Tensor, error) {
	seq := x.Dim(0)
	q, k, v, err := m.qkv(x)
	if err != nil {
		return nil, err
	}
	var heads [3]*Tensor
	for i, src := range []*Tensor{q, k, v} {
		if heads[i], err = m.splitHeads(src); err != nil {
			return nil, err
		}
	}
	qh, kh, vh := heads[0], heads[1], heads[2]
	probs, merged, err := m.attend(qh, kh, vh, seq, seq*m.headDim(), bidirectional)
	if err != nil {
		return nil, err
	}
	m.lastX, m.lastSeq = x, seq
	m.qh, m.kh, m.vh = qh, kh, vh
	m.probs, m.merged = probs, merged
	return merged, nil
}

// Forward implements Module for x of shape [seq, DModel].
func (m *MultiHeadAttention) Forward(x *Tensor) (*Tensor, error) {
	merged, err := m.context(x)
	if err != nil {
		return nil, err
	}
	return m.Wo.apply(m.Dev, merged)
}

// Backward walks the attention graph in reverse — output projection,
// head merge, probs·V, the softmax Jacobian, the scaled Q·Kᵀ, the head
// split, and finally the three input projections whose input gradients
// sum into dx.
func (m *MultiHeadAttention) Backward(dy *Tensor) (*Tensor, error) {
	seq := m.lastSeq
	dm := m.Wq.out
	dh := dm / m.Heads
	h := m.Dev.H
	scale := invSqrt(dh)

	dmerged, err := m.Wo.backward(m.Dev, m.merged, dy)
	if err != nil {
		return nil, err
	}
	dctxh, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, err
	}
	if err := h.SplitHeads(dmerged.Ptr, dctxh.Ptr, seq, m.Heads, dh); err != nil {
		return nil, err
	}

	// context[h] = probs·Vh  ⇒  dprobs = dctx·Vhᵀ, dVh = probsᵀ·dctx
	dprobs, err := m.Dev.NewTensor(m.Heads, seq, seq)
	if err != nil {
		return nil, err
	}
	if err := h.GemmNTStridedBatched(dctxh.Ptr, m.vh.Ptr, dprobs.Ptr,
		seq, seq, dh, seq*dh, seq*dh, seq*seq, m.Heads, 1, 0); err != nil {
		return nil, err
	}
	dvh, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, err
	}
	if err := h.GemmTNStridedBatched(m.probs.Ptr, dctxh.Ptr, dvh.Ptr,
		seq, dh, seq, seq*seq, seq*dh, seq*dh, m.Heads, 1, 0); err != nil {
		return nil, err
	}

	dscores, err := m.Dev.NewTensor(m.Heads, seq, seq)
	if err != nil {
		return nil, err
	}
	if err := h.SoftmaxBackward(m.probs.Ptr, dprobs.Ptr, dscores.Ptr, m.Heads*seq, seq); err != nil {
		return nil, err
	}

	// scores = scale·Qh·Khᵀ  ⇒  dQh = scale·dscores·Kh, dKh = scale·dscoresᵀ·Qh
	dqh, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, err
	}
	if err := h.GemmStridedBatched(dscores.Ptr, m.kh.Ptr, dqh.Ptr,
		seq, dh, seq, seq*seq, seq*dh, seq*dh, m.Heads, scale, 0); err != nil {
		return nil, err
	}
	dkh, err := m.Dev.NewTensor(m.Heads, seq, dh)
	if err != nil {
		return nil, err
	}
	if err := h.GemmTNStridedBatched(dscores.Ptr, m.qh.Ptr, dkh.Ptr,
		seq, dh, seq, seq*seq, seq*dh, seq*dh, m.Heads, scale, 0); err != nil {
		return nil, err
	}

	// back to [seq, DModel] and through the input projections
	grads := make([]*Tensor, 3)
	for i, src := range []*Tensor{dqh, dkh, dvh} {
		t, err := m.Dev.NewTensor(seq, dm)
		if err != nil {
			return nil, err
		}
		if err := h.MergeHeads(src.Ptr, t.Ptr, seq, m.Heads, dh); err != nil {
			return nil, err
		}
		grads[i] = t
	}
	dx, err := m.Wq.backward(m.Dev, m.lastX, grads[0])
	if err != nil {
		return nil, err
	}
	for i, p := range []*projection{m.Wk, m.Wv} {
		d, err := p.backward(m.Dev, m.lastX, grads[i+1])
		if err != nil {
			return nil, err
		}
		if err := h.AccumulateAdd(d.Ptr, dx.Ptr, seq*dm); err != nil {
			return nil, err
		}
	}
	return dx, nil
}

// Params lists the trainable parameters.
func (m *MultiHeadAttention) Params() []*Param {
	return []*Param{m.Wq.W, m.Wq.B, m.Wk.W, m.Wk.B, m.Wv.W, m.Wv.B, m.Wo.W, m.Wo.B}
}

// ForwardCPU implements Module: the host model's attention.
func (m *MultiHeadAttention) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	y, _ := hostAttn{snapshot(m.Params()), m.Heads}.forward(x, false)
	return y, shape
}

// TransformerBlock is one pre-LN encoder block:
// h = x + Attn(LN1(x)); y = h + W2·GELU(W1·LN2(h)).
type TransformerBlock struct {
	Dev  *Device
	Ln1  *LayerNorm
	Attn *MultiHeadAttention
	Ln2  *LayerNorm
	Fc1  *projection
	Fc2  *projection
	Act  *GELU
	// forward activation cache (pointers only) for Backward
	lastN2  *Tensor
	lastAct *Tensor
}

// NewTransformerBlock builds one encoder block.
func NewTransformerBlock(dev *Device, rng *rand.Rand, heads, dModel, ff int) (*TransformerBlock, error) {
	ln1, err := NewLayerNorm(dev, dModel)
	if err != nil {
		return nil, err
	}
	attn, err := NewMultiHeadAttention(dev, rng, heads, dModel)
	if err != nil {
		return nil, err
	}
	ln2, err := NewLayerNorm(dev, dModel)
	if err != nil {
		return nil, err
	}
	fc1, err := newProjection(dev, rng, dModel, ff, "ff.fc1")
	if err != nil {
		return nil, err
	}
	fc2, err := newProjection(dev, rng, ff, dModel, "ff.fc2")
	if err != nil {
		return nil, err
	}
	return &TransformerBlock{Dev: dev,
		Ln1: ln1, Attn: attn, Ln2: ln2, Fc1: fc1, Fc2: fc2, Act: &GELU{Dev: dev}}, nil
}

// residual computes x + r into a fresh tensor.
func (b *TransformerBlock) residual(x, r *Tensor) (*Tensor, error) {
	y, err := b.Dev.NewTensor(x.Shape...)
	if err != nil {
		return nil, err
	}
	if err := b.Dev.H.ResidualAdd(x.Ptr, r.Ptr, y.Ptr, x.Count()); err != nil {
		return nil, err
	}
	return y, nil
}

// mlpAct opens the feed-forward branch on the attention output att:
// h = x + att, then a = GELU(Fc1(LN2(h))). h comes back for the closing
// residual.
func (b *TransformerBlock) mlpAct(x, att *Tensor) (h, a *Tensor, err error) {
	if h, err = b.residual(x, att); err != nil {
		return nil, nil, err
	}
	n2, err := b.Ln2.Forward(h)
	if err != nil {
		return nil, nil, err
	}
	f1, err := b.Fc1.apply(b.Dev, n2)
	if err != nil {
		return nil, nil, err
	}
	if a, err = b.Act.Forward(f1); err != nil {
		return nil, nil, err
	}
	b.lastN2, b.lastAct = n2, a
	return h, a, nil
}

// feedForward is the block after its attention: y = h + Fc2(a), with h
// and a from mlpAct.
func (b *TransformerBlock) feedForward(x, att *Tensor) (*Tensor, error) {
	h, a, err := b.mlpAct(x, att)
	if err != nil {
		return nil, err
	}
	f2, err := b.Fc2.apply(b.Dev, a)
	if err != nil {
		return nil, err
	}
	return b.residual(h, f2)
}

// Forward implements Module for x of shape [seq, DModel].
func (b *TransformerBlock) Forward(x *Tensor) (*Tensor, error) {
	n1, err := b.Ln1.Forward(x)
	if err != nil {
		return nil, err
	}
	att, err := b.Attn.Forward(n1)
	if err != nil {
		return nil, err
	}
	return b.feedForward(x, att)
}

// Backward backpropagates through the block. The two residual
// connections make the gradient flow: dy reaches both the FF branch and
// (as a pass-through) h; the combined dh then reaches both the attention
// branch and (again as a pass-through) x.
func (b *TransformerBlock) Backward(dy *Tensor) (*Tensor, error) {
	// FF branch: y = h + Fc2(GELU(Fc1(LN2(h))))
	da, err := b.Fc2.backward(b.Dev, b.lastAct, dy)
	if err != nil {
		return nil, err
	}
	df1, err := b.Act.Backward(da)
	if err != nil {
		return nil, err
	}
	dn2, err := b.Fc1.backward(b.Dev, b.lastN2, df1)
	if err != nil {
		return nil, err
	}
	dhFF, err := b.Ln2.Backward(dn2)
	if err != nil {
		return nil, err
	}
	// dh = dy (residual) + FF-branch gradient
	dh, err := b.residual(dy, dhFF)
	if err != nil {
		return nil, err
	}
	// attention branch: h = x + Attn(LN1(x))
	dn1, err := b.Attn.Backward(dh)
	if err != nil {
		return nil, err
	}
	dxAttn, err := b.Ln1.Backward(dn1)
	if err != nil {
		return nil, err
	}
	return b.residual(dh, dxAttn)
}

// Params lists the trainable parameters.
func (b *TransformerBlock) Params() []*Param {
	out := append(b.Ln1.Params(), b.Attn.Params()...)
	out = append(out, b.Ln2.Params()...)
	return append(out, b.Fc1.W, b.Fc1.B, b.Fc2.W, b.Fc2.B)
}

// ForwardCPU implements Module: the host model's block.
func (b *TransformerBlock) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	y, _ := hostBlock{snapshot(b.Params()), b.Attn.Heads, b.Ln1.Eps}.forward(x, false)
	return y, shape
}

// Embedding gathers learned [Vocab, Dim] rows by token id. It is not a
// Module (its input is ids, not a float tensor); it exposes the same
// Forward/ForwardCPU differential contract directly.
type Embedding struct {
	Dev     *Device
	Vocab   int
	Dim     int
	Table   *Param
	lastIDs uint64
	lastN   int
}

// NewEmbedding builds a randomly initialised embedding table.
func NewEmbedding(dev *Device, rng *rand.Rand, vocab, dim int) (*Embedding, error) {
	w, err := dev.NewTensor(vocab, dim)
	if err != nil {
		return nil, err
	}
	w.RandInit(rng, 0.5)
	return &Embedding{Dev: dev, Vocab: vocab, Dim: dim,
		Table: &Param{W: w, Name: "embed.table"}}, nil
}

// ForwardDevice gathers n pre-uploaded u32 ids into a [n, Dim] tensor
// without any host-device synchronisation (stream-overlap safe).
func (e *Embedding) ForwardDevice(ids uint64, n int) (*Tensor, error) {
	y, err := e.Dev.NewTensor(n, e.Dim)
	if err != nil {
		return nil, err
	}
	if err := e.Dev.H.EmbeddingLookup(e.Table.W.Ptr, ids, y.Ptr, n, e.Dim); err != nil {
		return nil, err
	}
	e.lastIDs, e.lastN = ids, n
	return y, nil
}

// Backward scatter-adds dy into the table gradient by the cached token
// ids. The embedding consumes ids, not activations, so no input
// gradient is produced.
func (e *Embedding) Backward(dy *Tensor) error {
	if err := gradsRequired(e.Table); err != nil {
		return err
	}
	return e.Dev.H.EmbeddingBackward(dy.Ptr, e.lastIDs, e.Table.Grad.Ptr, e.lastN, e.Dim)
}

// TransformerConfig sizes a TransformerEncoder.
type TransformerConfig struct {
	Layers int
	Heads  int
	DModel int
	FF     int
	Vocab  int
	MaxSeq int
}

// SampleTransformerConfig sizes the sample model the transformer
// drivers, the serving layer and the benchmark share: small enough for
// the detailed model to run in seconds, big enough that every kernel
// family appears.
func SampleTransformerConfig() TransformerConfig {
	return TransformerConfig{Layers: 2, Heads: 4, DModel: 32, FF: 64, Vocab: 61, MaxSeq: 16}
}

// TransformerEncoder is a small N-layer pre-LN encoder: token embedding
// + learned positional embedding, Layers blocks, and a final LayerNorm.
type TransformerEncoder struct {
	Dev    *Device
	Cfg    TransformerConfig
	Embed  *Embedding
	Pos    *Param
	Blocks []*TransformerBlock
	Final  *LayerNorm
}

// NewTransformerEncoder builds the model with deterministic rng-seeded
// weights.
func NewTransformerEncoder(dev *Device, rng *rand.Rand, cfg TransformerConfig) (*TransformerEncoder, error) {
	emb, err := NewEmbedding(dev, rng, cfg.Vocab, cfg.DModel)
	if err != nil {
		return nil, err
	}
	pos, err := dev.NewTensor(cfg.MaxSeq, cfg.DModel)
	if err != nil {
		return nil, err
	}
	pos.RandInit(rng, 0.1)
	enc := &TransformerEncoder{Dev: dev, Cfg: cfg, Embed: emb,
		Pos: &Param{W: pos, Name: "embed.pos"}}
	for i := 0; i < cfg.Layers; i++ {
		blk, err := NewTransformerBlock(dev, rng, cfg.Heads, cfg.DModel, cfg.FF)
		if err != nil {
			return nil, err
		}
		enc.Blocks = append(enc.Blocks, blk)
	}
	if enc.Final, err = NewLayerNorm(dev, cfg.DModel); err != nil {
		return nil, err
	}
	return enc, nil
}

// embed is every schedule's prologue: it gathers the embedding rows of
// seq pre-uploaded ids and adds positional rows pos..pos+seq-1.
func (t *TransformerEncoder) embed(ids uint64, seq, pos int) (*Tensor, error) {
	if pos+seq > t.Cfg.MaxSeq {
		return nil, fmt.Errorf("torch: sequence length %d exceeds MaxSeq %d", pos+seq, t.Cfg.MaxSeq)
	}
	dm := t.Cfg.DModel
	e, err := t.Embed.ForwardDevice(ids, seq)
	if err != nil {
		return nil, err
	}
	x, err := t.Dev.NewTensor(seq, dm)
	if err != nil {
		return nil, err
	}
	if err := t.Dev.H.ResidualAdd(e.Ptr, t.Pos.W.Ptr+uint64(4*pos*dm), x.Ptr, seq*dm); err != nil {
		return nil, err
	}
	return x, nil
}

// forwardDevice runs the encoder over pre-uploaded ids, launching only
// kernels (no synchronising copies), so it can ride a CUDA stream.
func (t *TransformerEncoder) forwardDevice(ids uint64, seq int) (*Tensor, error) {
	x, err := t.embed(ids, seq, 0)
	if err != nil {
		return nil, err
	}
	for _, blk := range t.Blocks {
		if x, err = blk.Forward(x); err != nil {
			return nil, err
		}
	}
	return t.Final.Forward(x)
}

// Backward propagates dy (gradient of the final [seq, DModel]
// activation) through the final norm and every block in reverse, then
// accumulates the positional-table gradient prefix and scatter-adds the
// token gradient into the embedding table. Parameter gradients
// accumulate in place; run EnsureGrads once before the first call.
func (t *TransformerEncoder) Backward(dy *Tensor) error {
	if err := gradsRequired(t.Pos); err != nil {
		return err
	}
	dx, err := t.Final.Backward(dy)
	if err != nil {
		return err
	}
	for i := len(t.Blocks) - 1; i >= 0; i-- {
		if dx, err = t.Blocks[i].Backward(dx); err != nil {
			return err
		}
	}
	// x0 = embed + pos[:seq] — dx feeds both tables
	if err := t.Dev.H.AccumulateAdd(dx.Ptr, t.Pos.Grad.Ptr, dx.Count()); err != nil {
		return err
	}
	return t.Embed.Backward(dx)
}

// Forward runs one sequence of token ids through the encoder and returns
// the [len(ids), DModel] activation tensor.
func (t *TransformerEncoder) Forward(ids []int32) (*Tensor, error) {
	if err := validateTokenIDs(ids, t.Cfg.Vocab); err != nil {
		return nil, err
	}
	addr, err := t.Dev.UploadLabels(ids)
	if err != nil {
		return nil, err
	}
	return t.forwardDevice(addr, len(ids))
}

// ForwardCPU is the host oracle of Forward: the host model's forward.
func (t *TransformerEncoder) ForwardCPU(ids []int32) ([]float32, []int) {
	m := newHostModel(t)
	return m.forward(ids, false), []int{len(ids), t.Cfg.DModel}
}

// ForwardBatch runs several sequences through the encoder. With
// concurrent=true each sequence's kernel chain is issued on its own CUDA
// stream (Device.OnStreams) so the detailed timing model overlaps them;
// otherwise everything serialises on the default stream. All id uploads
// happen before the first launch — synchronous copies are
// device-synchronizing and would drain the streams. Returns the
// downloaded [seq, DModel] outputs in input order.
func (t *TransformerEncoder) ForwardBatch(batch [][]int32, concurrent bool) ([][]float32, error) {
	idBufs := make([]uint64, len(batch))
	for i, ids := range batch {
		if err := validateTokenIDs(ids, t.Cfg.Vocab); err != nil {
			return nil, err
		}
		addr, err := t.Dev.UploadLabels(ids)
		if err != nil {
			return nil, err
		}
		idBufs[i] = addr
	}
	outs := make([]*Tensor, len(batch))
	err := t.Dev.OnStreams(len(batch), concurrent, func(i int) (err error) {
		outs[i], err = t.forwardDevice(idBufs[i], len(batch[i]))
		return err
	})
	if err != nil {
		return nil, err
	}
	res := make([][]float32, len(batch))
	for i, y := range outs {
		res[i] = y.ToHost()
	}
	return res, nil
}

// Params returns every parameter of the encoder.
func (t *TransformerEncoder) Params() []*Param {
	out := []*Param{t.Embed.Table, t.Pos}
	for _, blk := range t.Blocks {
		out = append(out, blk.Params()...)
	}
	return append(out, t.Final.Params()...)
}

// invSqrt is attention's score scale for head width n.
func invSqrt(n int) float32 {
	return float32(1 / math.Sqrt(float64(n)))
}
