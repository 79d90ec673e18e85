package torch

// Transformer training step. The device path chains the train-module
// kernels through TransformerEncoder.Backward and the tied-embedding LM
// head; CPUTrainState is the independent host mirror (its own weight
// copies, stepped with internal/ref math) that the timing tests compare
// against step-for-step.
//
// Gradient buffers are allocated here, lazily, AFTER model
// construction: inference-only code never calls EnsureGrads, so the
// allocator layout of every pre-existing workload — and with it the
// pinned golden timing stats — is untouched.

import (
	"fmt"
	"math"

	"repro/internal/ref"
)

// Param pairs a weight tensor with its gradient accumulator.
type Param struct {
	W    *Tensor
	Grad *Tensor
	Name string
}

// EnsureGrads allocates a zeroed gradient buffer for every parameter
// that does not have one yet. Idempotent.
func EnsureGrads(dev *Device, params []*Param) error {
	for _, p := range params {
		if p.Grad != nil {
			continue
		}
		g, err := dev.Zeros(p.W.Shape...)
		if err != nil {
			return fmt.Errorf("torch: allocating gradient for %s: %w", p.Name, err)
		}
		p.Grad = g
	}
	return nil
}

// SGD is a plain stochastic-gradient-descent optimizer whose update runs
// on the device (sgd_update kernel).
type SGD struct {
	Dev    *Device
	LR     float32
	Params []*Param
}

// Step applies one update and zeroes the gradients. Updates are applied
// in Params order; on error the optimizer state is PARTIAL: parameters
// before the reported index have been updated (and their gradients
// zeroed) while the failing parameter and everything after it are
// untouched. Callers that need all-or-nothing semantics must snapshot
// weights before calling. The error names the parameter so the caller
// can tell exactly where the step stopped.
func (o *SGD) Step() error {
	for i, p := range o.Params {
		if p.Grad == nil {
			return fmt.Errorf("sgd: step stopped at param %d (%s): no gradient buffer (params 0..%d already updated)", i, p.Name, i-1)
		}
		if err := o.Dev.H.SGDUpdate(p.W.Ptr, p.Grad.Ptr, p.W.Count(), o.LR); err != nil {
			return fmt.Errorf("sgd: step stopped at param %d (%s): %w (params 0..%d already updated)", i, p.Name, err, i-1)
		}
		o.Dev.Ctx.Memset(p.Grad.Ptr, 0, 4*p.Grad.Count())
	}
	return nil
}

// NextTokenTargets returns the language-modelling targets for ids: each
// position predicts its successor, with the final position wrapping to
// the first token so every row contributes to the loss.
func NextTokenTargets(ids []int32) []int32 {
	tgt := make([]int32, len(ids))
	for i := range ids {
		tgt[i] = ids[(i+1)%len(ids)]
	}
	return tgt
}

// TransformerTrainer owns one encoder, its SGD optimizer and the loss
// head. The LM head ties the embedding table: logits = y·Tableᵀ, so the
// table gradient accumulates from both the logit GEMM and the embedding
// scatter-add.
type TransformerTrainer struct {
	Dev   *Device
	Model *TransformerEncoder
	Opt   *SGD
}

// NewTransformerTrainer allocates gradient buffers for every model
// parameter and builds the optimizer.
func NewTransformerTrainer(dev *Device, model *TransformerEncoder, lr float32) (*TransformerTrainer, error) {
	params := model.Params()
	if err := EnsureGrads(dev, params); err != nil {
		return nil, err
	}
	return &TransformerTrainer{Dev: dev, Model: model,
		Opt: &SGD{Dev: dev, LR: lr, Params: params}}, nil
}

// TrainStep runs one full training step on the device — forward, loss,
// backward, SGD update — and returns the mean next-token cross-entropy
// loss. All math up to the loss download runs as kernels; the only
// synchronising transfer is the per-row loss readback.
func (t *TransformerTrainer) TrainStep(ids []int32) (float32, error) {
	loss, err := t.ForwardBackward(ids)
	if err != nil {
		return 0, err
	}
	if err := t.Opt.Step(); err != nil {
		return 0, err
	}
	return loss, nil
}

// ForwardBackward runs the forward pass, loss head and backward pass
// without the optimizer update, and returns the mean next-token loss.
// Gradients accumulate on the device: single-device training steps the
// optimizer right after (TrainStep); data-parallel training first
// combines the replicas' gradients with a ring all-reduce
// (internal/multigpu) and only then steps each replica.
func (t *TransformerTrainer) ForwardBackward(ids []int32) (float32, error) {
	cfg := t.Model.Cfg
	seq, dm, vocab := len(ids), cfg.DModel, cfg.Vocab
	table := t.Model.Embed.Table

	y, err := t.Model.Forward(ids)
	if err != nil {
		return 0, err
	}
	// logits[seq, vocab] = y·Tableᵀ (tied embedding)
	logits, err := t.Dev.NewTensor(seq, vocab)
	if err != nil {
		return 0, err
	}
	if err := t.Dev.H.GemmNTStridedBatched(y.Ptr, table.W.Ptr, logits.Ptr,
		seq, vocab, dm, seq*dm, vocab*dm, seq*vocab, 1, 1, 0); err != nil {
		return 0, err
	}
	lab, err := t.Dev.UploadLabels(NextTokenTargets(ids))
	if err != nil {
		return 0, err
	}
	dlogits, err := t.Dev.NewTensor(seq, vocab)
	if err != nil {
		return 0, err
	}
	lossT, err := t.Dev.NewTensor(seq)
	if err != nil {
		return 0, err
	}
	if err := t.Dev.H.SoftmaxXentBackward(logits.Ptr, lab, dlogits.Ptr, lossT.Ptr, seq, vocab); err != nil {
		return 0, err
	}
	// dTable += dlogitsᵀ·y (the scatter-add half comes from Backward)
	if err := t.Dev.H.GemmTNStridedBatched(dlogits.Ptr, y.Ptr, table.Grad.Ptr,
		vocab, dm, seq, seq*vocab, seq*dm, vocab*dm, 1, 1, 1); err != nil {
		return 0, err
	}
	// dy[seq, dm] = dlogits·Table
	dy, err := t.Dev.NewTensor(seq, dm)
	if err != nil {
		return 0, err
	}
	if err := t.Dev.H.GemmStridedBatched(dlogits.Ptr, table.W.Ptr, dy.Ptr,
		seq, dm, vocab, seq*vocab, vocab*dm, seq*dm, 1, 1, 0); err != nil {
		return 0, err
	}
	if err := t.Model.Backward(dy); err != nil {
		return 0, err
	}
	perRow := lossT.ToHost()
	var sum float32
	for _, v := range perRow {
		sum += v
	}
	return sum / float32(seq), nil
}

// ---------------------------------------------------------------------------
// CPU oracle

type cpuProj struct {
	w, b   []float32
	dw, db []float32
}

func (p *cpuProj) apply(x []float32, rows, in, out int) []float32 {
	y := make([]float32, rows*out)
	ref.Gemm(x, p.w, y, rows, out, in, 1, 0)
	ref.AddBias(y, p.b, rows, out, 1)
	return y
}

func (p *cpuProj) backward(x, dy []float32, rows, in, out int) []float32 {
	dx := make([]float32, rows*in)
	ref.GemmNT(dy, p.w, dx, rows, in, out, 1, 0)
	ref.GemmTN(x, dy, p.dw, in, out, rows, 1, 1)
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			p.db[j] += dy[r*out+j]
		}
	}
	return dx
}

type cpuLN struct {
	g, b   []float32
	dg, db []float32
}

func (l *cpuLN) forward(x []float32, rows, cols int, eps float32) []float32 {
	return ref.LayerNorm(x, l.g, l.b, rows, cols, eps)
}

func (l *cpuLN) backward(x, dy []float32, rows, cols int, eps float32) []float32 {
	dx, dg, db := ref.LayerNormBackward(x, l.g, dy, rows, cols, eps)
	addInto(l.dg, dg)
	addInto(l.db, db)
	return dx
}

type cpuBlock struct {
	ln1, ln2      cpuLN
	q, k, v, o    cpuProj
	fc1, fc2      cpuProj
	x, n1, h, n2  []float32
	f1, act       []float32
	qh, kh, vh    []float32
	probs, merged []float32
}

// CPUTrainState is a host mirror of a TransformerEncoder for the
// training oracle: it snapshots the model's weights at construction and
// thereafter evolves independently with internal/ref arithmetic, so a
// device-vs-CPU loss comparison spans the whole train loop, not just
// one step.
type CPUTrainState struct {
	Cfg          TransformerConfig
	Eps          float32
	table, pos   []float32
	dtable, dpos []float32
	blocks       []*cpuBlock
	final        cpuLN
	finalX       []float32
}

func newCPUProj(p *projection) cpuProj {
	w, b := p.W.W.ToHost(), p.B.W.ToHost()
	return cpuProj{w: w, b: b, dw: make([]float32, len(w)), db: make([]float32, len(b))}
}

func newCPULN(l *LayerNorm) cpuLN {
	g, b := l.Gamma.W.ToHost(), l.Beta.W.ToHost()
	return cpuLN{g: g, b: b, dg: make([]float32, len(g)), db: make([]float32, len(b))}
}

// NewCPUTrainState snapshots model's current weights into an
// independent host mirror.
func NewCPUTrainState(model *TransformerEncoder) *CPUTrainState {
	c := &CPUTrainState{
		Cfg:   model.Cfg,
		Eps:   model.Final.Eps,
		table: model.Embed.Table.W.ToHost(),
		pos:   model.Pos.W.ToHost(),
		final: newCPULN(model.Final),
	}
	c.dtable = make([]float32, len(c.table))
	c.dpos = make([]float32, len(c.pos))
	for _, blk := range model.Blocks {
		c.blocks = append(c.blocks, &cpuBlock{
			ln1: newCPULN(blk.Ln1), ln2: newCPULN(blk.Ln2),
			q: newCPUProj(blk.Attn.Wq), k: newCPUProj(blk.Attn.Wk),
			v: newCPUProj(blk.Attn.Wv), o: newCPUProj(blk.Attn.Wo),
			fc1: newCPUProj(blk.Fc1), fc2: newCPUProj(blk.Fc2),
		})
	}
	return c
}

func addInto(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

func (c *CPUTrainState) attnForward(b *cpuBlock, x []float32, seq int) []float32 {
	dm := c.Cfg.DModel
	heads := c.Cfg.Heads
	dh := dm / heads
	b.qh = ref.SplitHeads(b.q.apply(x, seq, dm, dm), seq, heads, dh)
	b.kh = ref.SplitHeads(b.k.apply(x, seq, dm, dm), seq, heads, dh)
	b.vh = ref.SplitHeads(b.v.apply(x, seq, dm, dm), seq, heads, dh)
	scale := invSqrt(dh)
	b.probs = make([]float32, heads*seq*seq)
	ctxh := make([]float32, heads*seq*dh)
	for hh := 0; hh < heads; hh++ {
		scores := make([]float32, seq*seq)
		ref.GemmNT(b.qh[hh*seq*dh:], b.kh[hh*seq*dh:], scores, seq, seq, dh, scale, 0)
		copy(b.probs[hh*seq*seq:], ref.Softmax(scores, seq, seq))
		ref.Gemm(b.probs[hh*seq*seq:(hh+1)*seq*seq], b.vh[hh*seq*dh:(hh+1)*seq*dh],
			ctxh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, 1, 0)
	}
	b.merged = ref.MergeHeads(ctxh, seq, heads, dh)
	return b.o.apply(b.merged, seq, dm, dm)
}

func (c *CPUTrainState) attnBackward(b *cpuBlock, dy []float32, seq int) []float32 {
	dm := c.Cfg.DModel
	heads := c.Cfg.Heads
	dh := dm / heads
	scale := invSqrt(dh)
	dmerged := b.o.backward(b.merged, dy, seq, dm, dm)
	dctxh := ref.SplitHeads(dmerged, seq, heads, dh)
	dqh := make([]float32, heads*seq*dh)
	dkh := make([]float32, heads*seq*dh)
	dvh := make([]float32, heads*seq*dh)
	for hh := 0; hh < heads; hh++ {
		dctx := dctxh[hh*seq*dh : (hh+1)*seq*dh]
		probs := b.probs[hh*seq*seq : (hh+1)*seq*seq]
		dprobs := make([]float32, seq*seq)
		ref.GemmNT(dctx, b.vh[hh*seq*dh:], dprobs, seq, seq, dh, 1, 0)
		ref.GemmTN(probs, dctx, dvh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, 1, 1)
		dscores := ref.SoftmaxBackward(probs, dprobs, seq, seq)
		ref.Gemm(dscores, b.kh[hh*seq*dh:(hh+1)*seq*dh], dqh[hh*seq*dh:(hh+1)*seq*dh],
			seq, dh, seq, scale, 0)
		ref.GemmTN(dscores, b.qh[hh*seq*dh:], dkh[hh*seq*dh:(hh+1)*seq*dh], seq, dh, seq, scale, 1)
	}
	dq := ref.MergeHeads(dqh, seq, heads, dh)
	dk := ref.MergeHeads(dkh, seq, heads, dh)
	dv := ref.MergeHeads(dvh, seq, heads, dh)
	dx := b.q.backward(b.x1(), dq, seq, dm, dm)
	addInto(dx, b.k.backward(b.x1(), dk, seq, dm, dm))
	addInto(dx, b.v.backward(b.x1(), dv, seq, dm, dm))
	return dx
}

// x1 is the attention input (the ln1 output cached on the block).
func (b *cpuBlock) x1() []float32 { return b.n1 }

// TrainStep mirrors TransformerTrainer.TrainStep on the host and
// returns the mean loss.
func (c *CPUTrainState) TrainStep(ids []int32, lr float32) float32 {
	loss := c.ForwardBackward(ids)
	c.sgd(lr)
	return loss
}

// ForwardBackward mirrors TransformerTrainer.ForwardBackward on the
// host: gradients accumulate into the mirror's buffers without an
// optimizer update, so the data-parallel oracle can combine them across
// mirrors (AllReduceCPUGrads) before stepping each with ApplySGD.
func (c *CPUTrainState) ForwardBackward(ids []int32) float32 {
	cfg := c.Cfg
	seq, dm, vocab := len(ids), cfg.DModel, cfg.Vocab
	eps := c.Eps

	// forward
	x := ref.EmbeddingLookup(c.table, ids, dm)
	x = ref.AddResidual(x, c.pos[:seq*dm])
	for _, b := range c.blocks {
		b.x = x
		b.n1 = b.ln1.forward(x, seq, dm, eps)
		att := c.attnForward(b, b.n1, seq)
		b.h = ref.AddResidual(x, att)
		b.n2 = b.ln2.forward(b.h, seq, dm, eps)
		b.f1 = b.fc1.apply(b.n2, seq, dm, cfg.FF)
		b.act = ref.Gelu(b.f1)
		f2 := b.fc2.apply(b.act, seq, cfg.FF, dm)
		x = ref.AddResidual(b.h, f2)
	}
	c.finalX = x
	y := c.final.forward(x, seq, dm, eps)

	// tied-embedding loss head
	logits := make([]float32, seq*vocab)
	ref.GemmNT(y, c.table, logits, seq, vocab, dm, 1, 0)
	dlogits, perRow := ref.SoftmaxXentBackward(logits, NextTokenTargets(ids), seq, vocab)
	var sum float32
	for _, v := range perRow {
		sum += v
	}
	ref.GemmTN(dlogits, y, c.dtable, vocab, dm, seq, 1, 1)
	dy := make([]float32, seq*dm)
	ref.Gemm(dlogits, c.table, dy, seq, dm, vocab, 1, 0)

	// backward
	dx := c.final.backward(c.finalX, dy, seq, dm, eps)
	for i := len(c.blocks) - 1; i >= 0; i-- {
		b := c.blocks[i]
		da := b.fc2.backward(b.act, dx, seq, cfg.FF, dm)
		df1 := ref.GeluBackward(b.f1, da)
		dn2 := b.fc1.backward(b.n2, df1, seq, dm, cfg.FF)
		dhFF := b.ln2.backward(b.h, dn2, seq, dm, eps)
		dh := ref.AddResidual(dx, dhFF)
		dn1 := c.attnBackward(b, dh, seq)
		dxAttn := b.ln1.backward(b.x, dn1, seq, dm, eps)
		dx = ref.AddResidual(dh, dxAttn)
	}
	addInto(c.dpos[:seq*dm], dx)
	addInto(c.dtable, ref.EmbeddingBackward(dx, ids, vocab, dm))

	return sum / float32(seq)
}

// ApplySGD applies one SGD update with the given learning rate and
// zeroes the accumulated gradients (exported for the data-parallel
// mirror, which all-reduces gradients across replicas before stepping).
func (c *CPUTrainState) ApplySGD(lr float32) { c.sgd(lr) }

func (c *CPUTrainState) sgd(lr float32) {
	step := func(w, g []float32) {
		for i := range w {
			w[i] -= lr * g[i]
			g[i] = 0
		}
	}
	step(c.table, c.dtable)
	step(c.pos, c.dpos)
	for _, b := range c.blocks {
		step(b.ln1.g, b.ln1.dg)
		step(b.ln1.b, b.ln1.db)
		for _, p := range []*cpuProj{&b.q, &b.k, &b.v, &b.o, &b.fc1, &b.fc2} {
			step(p.w, p.dw)
			step(p.b, p.db)
		}
		step(b.ln2.g, b.ln2.dg)
		step(b.ln2.b, b.ln2.db)
	}
	step(c.final.g, c.final.dg)
	step(c.final.b, c.final.db)
}

// gradSlices returns the mirror's gradient buffers in the order of
// TransformerEncoder.Params().
func (c *CPUTrainState) gradSlices() [][]float32 {
	var all [][]float32
	all = append(all, c.dtable, c.dpos)
	for _, b := range c.blocks {
		all = append(all, b.ln1.dg, b.ln1.db,
			b.q.dw, b.q.db, b.k.dw, b.k.db, b.v.dw, b.v.db, b.o.dw, b.o.db,
			b.ln2.dg, b.ln2.db, b.fc1.dw, b.fc1.db, b.fc2.dw, b.fc2.db)
	}
	all = append(all, c.final.dg, c.final.db)
	return all
}

// AllReduceCPUGrads sums the accumulated gradients of the given mirrors
// element-wise in argument order and stores the sum back into every
// mirror — the host-side analog of the device ring all-reduce. The
// rank-ordered summation matches the multi-GPU coordinator's exactly,
// so the mirrors track the device replicas' rounding behaviour.
func AllReduceCPUGrads(states []*CPUTrainState) {
	if len(states) < 2 {
		return
	}
	grads := make([][][]float32, len(states))
	for i, s := range states {
		grads[i] = s.gradSlices()
	}
	for p := range grads[0] {
		sum := make([]float32, len(grads[0][p]))
		copy(sum, grads[0][p])
		for r := 1; r < len(states); r++ {
			for j, v := range grads[r][p] {
				sum[j] += v
			}
		}
		for r := range states {
			copy(grads[r][p], sum)
		}
	}
}

func invSqrt(n int) float32 {
	return float32(1 / math.Sqrt(float64(n)))
}
