package torch

// Transformer training step. The device path chains the train-module
// kernels through TransformerEncoder.Backward and the tied-embedding LM
// head; CPUTrainState is the host model (hostmodel.go, the same one
// inference and decode check against) plus gradient buffers: its own
// weight copies, stepped with internal/ref math, that the timing tests
// compare against step-for-step.
//
// Gradient buffers are allocated here, lazily, AFTER model
// construction: inference-only code never calls EnsureGrads, so the
// allocator layout of every pre-existing workload — and with it the
// pinned golden timing stats — is untouched.

import (
	"fmt"

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

// CPUTrainState is the training oracle: the host model of a
// TransformerEncoder plus a gradient buffer per parameter. It snapshots
// the model's weights at construction and thereafter evolves
// independently with internal/ref arithmetic, so a device-vs-CPU loss
// comparison spans the whole train loop, not just one step.
type CPUTrainState struct {
	hostModel
}

// NewCPUTrainState snapshots model's current weights into an
// independent host mirror.
func NewCPUTrainState(model *TransformerEncoder) *CPUTrainState {
	c := &CPUTrainState{newHostModel(model)}
	for i, p := range c.params {
		c.params[i].g = make([]float32, len(p.w))
	}
	return c
}

// TrainStep mirrors TransformerTrainer.TrainStep on the host and
// returns the mean loss.
func (c *CPUTrainState) TrainStep(ids []int32, lr float32) float32 {
	loss := c.ForwardBackward(ids)
	c.ApplySGD(lr)
	return loss
}

// ForwardBackward mirrors TransformerTrainer.ForwardBackward on the
// host: gradients accumulate into the mirror's buffers without an
// optimizer update, so the data-parallel oracle can combine them across
// mirrors (AllReduceCPUGrads) before stepping each with ApplySGD.
func (c *CPUTrainState) ForwardBackward(ids []int32) float32 {
	seq, dm, vocab := len(ids), c.cfg.DModel, c.cfg.Vocab
	table := c.params[0]
	y := c.forward(ids, false)

	// tied-embedding loss head
	logits := make([]float32, seq*vocab)
	ref.GemmNT(y, table.w, logits, seq, vocab, dm, 1, 0)
	dlogits, perRow := ref.SoftmaxXentBackward(logits, NextTokenTargets(ids), seq, vocab)
	var sum float32
	for _, v := range perRow {
		sum += v
	}
	ref.GemmTN(dlogits, y, table.g, vocab, dm, seq, 1, 1)
	dy := make([]float32, seq*dm)
	ref.Gemm(dlogits, table.w, dy, seq, dm, vocab, 1, 0)

	c.backward(ids, dy)
	return sum / float32(seq)
}

// ApplySGD applies one SGD update with the given learning rate and
// zeroes the accumulated gradients (exported for the data-parallel
// mirror, which all-reduces gradients across replicas before stepping).
func (c *CPUTrainState) ApplySGD(lr float32) {
	for _, p := range c.params {
		for i := range p.w {
			p.w[i] -= float32(lr * p.g[i])
			p.g[i] = 0
		}
	}
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
	for p := range states[0].params {
		sum := append([]float32(nil), states[0].params[p].g...)
		for _, s := range states[1:] {
			addInto(sum, s.params[p].g)
		}
		for _, s := range states {
			copy(s.params[p].g, sum)
		}
	}
}
