package torch

// The transformer's host model, the one host forward and backward of the
// encoder, in internal/ref arithmetic. The encoder's and the decoder's
// ForwardCPU, GenerateCPU and CPUTrainState run it whole; LayerNorm's,
// attention's and the block's ForwardCPU run those parts. It is a
// snapshot of TransformerEncoder.Params(), in that order, into one flat
// list, which hostProj, hostLN, hostAttn and hostBlock view. A forward
// keeps the activations a backward reads (bounded by MaxSeq).

import "repro/internal/ref"

// hostParam is one parameter's weights w and, in the training mirror,
// the gradient g they accumulate (nil otherwise).
type hostParam struct{ w, g []float32 }

// snapshot downloads params, in order.
func snapshot(params []*Param) []hostParam {
	out := make([]hostParam, len(params))
	for i, p := range params {
		out[i].w = p.W.ToHost()
	}
	return out
}

func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// hostProj is a projection's weight [in, out] and bias [out].
type hostProj []hostParam

func (p hostProj) dims() (in, out int) {
	out = len(p[1].w)
	return len(p[0].w) / out, out
}

// apply computes y = x·W + b for x[rows, in].
func (p hostProj) apply(x []float32) []float32 {
	in, out := p.dims()
	rows := len(x) / in
	y := make([]float32, rows*out)
	ref.Gemm(x, p[0].w, y, rows, out, in, 1, 0)
	ref.AddBias(y, p[1].w, rows, out, 1)
	return y
}

// backward returns dx = dy·Wᵀ and accumulates dW += xᵀ·dy and
// db += Σ_rows dy, where x is the forward input.
func (p hostProj) backward(x, dy []float32) []float32 {
	in, out := p.dims()
	rows := len(x) / in
	dx := make([]float32, rows*in)
	ref.GemmNT(dy, p[0].w, dx, rows, in, out, 1, 0)
	ref.GemmTN(x, dy, p[0].g, in, out, rows, 1, 1)
	for r := 0; r < rows; r++ {
		addInto(p[1].g, dy[r*out:(r+1)*out])
	}
	return dx
}

// hostLN is a layer norm's γ and β.
type hostLN []hostParam

func (l hostLN) forward(x []float32, eps float32) []float32 {
	dim := len(l[0].w)
	return ref.LayerNorm(x, l[0].w, l[1].w, len(x)/dim, dim, eps)
}

// backward returns dx and accumulates dγ and dβ.
func (l hostLN) backward(x, dy []float32, eps float32) []float32 {
	dim := len(l[0].w)
	dx, dg, db := ref.LayerNormBackward(x, l[0].w, dy, len(x)/dim, dim, eps)
	addInto(l[0].g, dg)
	addInto(l[1].g, db)
	return dx
}

// hostAttn is multi-head attention: the query, key, value and output
// projections, in MultiHeadAttention.Params() order.
type hostAttn struct {
	p     []hostParam
	heads int
}

func (a hostAttn) proj(i int) hostProj { return hostProj(a.p[2*i : 2*i+2]) }

// shape returns the sequence length and head width of input x.
func (a hostAttn) shape(x []float32) (seq, dh int) {
	in, out := a.proj(0).dims()
	return len(x) / in, out / a.heads
}

// attnActs are what attention's backward reads: the input, the
// [Heads, seq, dh] queries, keys and values, each head's [seq, seq]
// probabilities, and the merged context.
type attnActs struct {
	x, qh, kh, vh []float32
	probs         [][]float32
	merged        []float32
}

// forward computes, per head, softmax(Qh·Khᵀ/sqrt(dh))·Vh — causally
// masked when causal is set, so query row i sees keys 0..i — and the
// output projection of the merged context.
func (a hostAttn) forward(x []float32, causal bool) ([]float32, attnActs) {
	seq, dh := a.shape(x)
	s := attnActs{x: x,
		qh: ref.SplitHeads(a.proj(0).apply(x), seq, a.heads, dh),
		kh: ref.SplitHeads(a.proj(1).apply(x), seq, a.heads, dh),
		vh: ref.SplitHeads(a.proj(2).apply(x), seq, a.heads, dh),
	}
	ctxh := make([]float32, a.heads*seq*dh)
	for hh := 0; hh < a.heads; hh++ {
		scores := make([]float32, seq*seq)
		ref.GemmNT(s.qh[hh*seq*dh:], s.kh[hh*seq*dh:], scores, seq, seq, dh, invSqrt(dh), 0)
		var probs []float32
		if causal {
			probs = ref.SoftmaxCausal(scores, seq, seq, seq, 0)
		} else {
			probs = ref.Softmax(scores, seq, seq)
		}
		s.probs = append(s.probs, probs)
		ref.Gemm(probs, s.vh[hh*seq*dh:(hh+1)*seq*dh], ctxh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, 1, 0)
	}
	s.merged = ref.MergeHeads(ctxh, seq, a.heads, dh)
	return a.proj(3).apply(s.merged), s
}

// backward returns dx, the sum of the three input projections' input
// gradients.
func (a hostAttn) backward(s *attnActs, dy []float32) []float32 {
	seq, dh := a.shape(s.x)
	scale := invSqrt(dh)
	dctxh := ref.SplitHeads(a.proj(3).backward(s.merged, dy), seq, a.heads, dh)
	dqh := make([]float32, a.heads*seq*dh)
	dkh := make([]float32, a.heads*seq*dh)
	dvh := make([]float32, a.heads*seq*dh)
	for hh := 0; hh < a.heads; hh++ {
		dctx := dctxh[hh*seq*dh : (hh+1)*seq*dh]
		dprobs := make([]float32, seq*seq)
		ref.GemmNT(dctx, s.vh[hh*seq*dh:], dprobs, seq, seq, dh, 1, 0)
		ref.GemmTN(s.probs[hh], dctx, dvh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, 1, 1)
		dscores := ref.SoftmaxBackward(s.probs[hh], dprobs, seq, seq)
		ref.Gemm(dscores, s.kh[hh*seq*dh:(hh+1)*seq*dh], dqh[hh*seq*dh:(hh+1)*seq*dh],
			seq, dh, seq, scale, 0)
		ref.GemmTN(dscores, s.qh[hh*seq*dh:], dkh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, scale, 1)
	}
	dx := a.proj(0).backward(s.x, ref.MergeHeads(dqh, seq, a.heads, dh))
	addInto(dx, a.proj(1).backward(s.x, ref.MergeHeads(dkh, seq, a.heads, dh)))
	addInto(dx, a.proj(2).backward(s.x, ref.MergeHeads(dvh, seq, a.heads, dh)))
	return dx
}

// blockParams is the length of TransformerBlock.Params().
const blockParams = 16

// hostBlock is a pre-LN encoder block in TransformerBlock.Params() order:
// ln1, the attention's eight, ln2, fc1, fc2.
type hostBlock struct {
	p     []hostParam
	heads int
	eps   float32
}

func (b hostBlock) ln1() hostLN    { return hostLN(b.p[0:2]) }
func (b hostBlock) attn() hostAttn { return hostAttn{b.p[2:10], b.heads} }
func (b hostBlock) ln2() hostLN    { return hostLN(b.p[10:12]) }
func (b hostBlock) fc1() hostProj  { return hostProj(b.p[12:14]) }
func (b hostBlock) fc2() hostProj  { return hostProj(b.p[14:16]) }

// blockActs are what a block's backward reads.
type blockActs struct {
	attn              attnActs // its input is ln1's output
	x, h, n2, f1, act []float32
}

// forward computes h = x + Attn(LN1(x)); y = h + Fc2(GELU(Fc1(LN2(h)))).
func (b hostBlock) forward(x []float32, causal bool) ([]float32, blockActs) {
	s := blockActs{x: x}
	var att []float32
	att, s.attn = b.attn().forward(b.ln1().forward(x, b.eps), causal)
	s.h = ref.AddResidual(x, att)
	s.n2 = b.ln2().forward(s.h, b.eps)
	s.f1 = b.fc1().apply(s.n2)
	s.act = ref.Gelu(s.f1)
	return ref.AddResidual(s.h, b.fc2().apply(s.act)), s
}

// backward returns dx: dy reaches the feed-forward branch and h, and
// the combined dh reaches the attention branch and x.
func (b hostBlock) backward(s *blockActs, dy []float32) []float32 {
	da := b.fc2().backward(s.act, dy)
	dn2 := b.fc1().backward(s.n2, ref.GeluBackward(s.f1, da))
	dh := ref.AddResidual(dy, b.ln2().backward(s.h, dn2, b.eps))
	dn1 := b.attn().backward(&s.attn, dh)
	return ref.AddResidual(dh, b.ln1().backward(s.x, dn1, b.eps))
}

// hostModel is the encoder: its parameters in Params() order (embedding
// table, positional table, each block's blockParams, the final norm) and
// the activations of the last forward.
type hostModel struct {
	cfg    TransformerConfig
	eps    float32
	params []hostParam
	blocks []blockActs
	finalX []float32
}

func newHostModel(t *TransformerEncoder) hostModel {
	return hostModel{cfg: t.Cfg, eps: t.Final.Eps, params: snapshot(t.Params())}
}

func (m *hostModel) block(i int) hostBlock {
	return hostBlock{m.params[2+i*blockParams : 2+(i+1)*blockParams], m.cfg.Heads, m.eps}
}

func (m *hostModel) final() hostLN { return hostLN(m.params[len(m.params)-2:]) }

// forward returns the final [len(ids), DModel] activations, with
// causally masked attention when causal is set.
func (m *hostModel) forward(ids []int32, causal bool) []float32 {
	x := ref.EmbeddingLookup(m.params[0].w, ids, m.cfg.DModel)
	x = ref.AddResidual(x, m.params[1].w[:len(x)])
	m.blocks = m.blocks[:0]
	for i := 0; i < m.cfg.Layers; i++ {
		var s blockActs
		x, s = m.block(i).forward(x, causal)
		m.blocks = append(m.blocks, s)
	}
	m.finalX = x
	return m.final().forward(x, m.eps)
}

// backward propagates dy, the gradient of the last forward's output,
// into both embedding tables, accumulating every parameter's gradient.
func (m *hostModel) backward(ids []int32, dy []float32) {
	dx := m.final().backward(m.finalX, dy, m.eps)
	for i := len(m.blocks) - 1; i >= 0; i-- {
		dx = m.block(i).backward(&m.blocks[i], dx)
	}
	addInto(m.params[1].g[:len(dx)], dx)
	addInto(m.params[0].g, ref.EmbeddingBackward(dx, ids, m.cfg.Vocab, m.cfg.DModel))
}
