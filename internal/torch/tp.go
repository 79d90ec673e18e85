package torch

// Tensor-parallel transformer shards for the multi-GPU node. Every
// weight matrix is split column-wise across the world: rank r of W
// holds the contiguous column block W[:, r*cols/world : (r+1)*cols/world]
// (for the attention projections that block is a contiguous range of
// whole heads). Each phase computes a column shard of its layer's
// output from a *full-width* input, then the node's all-gather
// concatenates the shards back into the full activation on every rank
// before the next phase consumes it.
//
// The all-column split (rather than the Megatron column-then-row pair)
// is deliberate: every GEMM keeps the full K dimension, so each output
// element is the same dot product, accumulated in the same k-order, as
// the single-device encoder's — and since the gather only *moves* bytes,
// the sharded forward is bitwise identical to TransformerEncoder.Forward
// with the same weights. The multi-GPU tests lean on that as an exact
// oracle; the cost is one extra gather per block over the 2-collective
// Megatron schedule, which the modelled fabric prices accordingly.
//
// Phase methods only touch the shard's own device and launch on the
// default stream (synchronous), so the node can run one phase per rank
// concurrently on the host pool and find every engine idle at the
// collective boundary.

import "fmt"

// TPShard is one rank of a tensor-parallel replica of a
// TransformerEncoder. The embedding, positional table and layer norms
// are replicated; all projections are column shards.
type TPShard struct {
	Dev *Device
	Cfg TransformerConfig

	// model holds the rank-local weights in the encoder's own types, so
	// the phase methods below issue TransformerBlock's phases: replicated
	// tables and norms, and blocks whose projections are column shards
	// (Attn.Heads is the rank's share of the heads). Only the phases are
	// meaningful on it — a sharded block's Forward would feed a column
	// shard where the next projection expects the gathered activation.
	model *TransformerEncoder

	// forward state threaded between phases
	x     *Tensor // residual stream [seq, DModel]
	h     *Tensor // post-attention residual [seq, DModel]
	shard *Tensor // column shard the last phase produced
	full  *Tensor // gather destination the next phase consumes
}

// colShard extracts the contiguous column block [c0, c0+n) of a
// row-major [rows, cols] host matrix.
func colShard(w []float32, rows, cols, c0, n int) []float32 {
	out := make([]float32, rows*n)
	for r := 0; r < rows; r++ {
		copy(out[r*n:(r+1)*n], w[r*cols+c0:r*cols+c0+n])
	}
	return out
}

// shardProjection uploads rank's column shard of a reference projection
// (weight [in, out] → [in, out/world]; bias [out] → [out/world]).
func shardProjection(dev *Device, ref *projection, rank, world int) (*projection, error) {
	n := ref.out / world
	c0 := rank * n
	w, err := dev.FromHost(colShard(ref.W.W.ToHost(), ref.in, ref.out, c0, n), ref.in, n)
	if err != nil {
		return nil, err
	}
	b, err := dev.FromHost(ref.B.W.ToHost()[c0:c0+n], n)
	if err != nil {
		return nil, err
	}
	return &projection{in: ref.in, out: n,
		W: &Param{W: w, Name: ref.W.Name}, B: &Param{W: b, Name: ref.B.Name}}, nil
}

// replicate uploads a full copy of a reference parameter.
func replicate(dev *Device, src *Param) (*Param, error) {
	w, err := dev.FromHost(src.W.ToHost(), src.W.Shape...)
	if err != nil {
		return nil, err
	}
	return &Param{W: w, Name: src.Name}, nil
}

// replicateNorm uploads a full copy of a reference layer norm.
func replicateNorm(dev *Device, src *LayerNorm) (*LayerNorm, error) {
	g, err := replicate(dev, src.Gamma)
	if err != nil {
		return nil, err
	}
	b, err := replicate(dev, src.Beta)
	if err != nil {
		return nil, err
	}
	return &LayerNorm{Dev: dev, Dim: src.Dim, Eps: src.Eps, Gamma: g, Beta: b}, nil
}

// NewTPShard builds rank `rank` of a `world`-way tensor-parallel copy of
// ref's weights on dev. The reference encoder stays untouched (its
// weights are read back to the host and re-uploaded shard-wise), so it
// remains usable as the exact single-device oracle. world must divide
// Heads, DModel and FF.
func NewTPShard(dev *Device, ref *TransformerEncoder, rank, world int) (*TPShard, error) {
	cfg := ref.Cfg
	if world < 1 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("torch: tensor-parallel rank %d out of range for world %d", rank, world)
	}
	if cfg.Heads%world != 0 || cfg.DModel%world != 0 || cfg.FF%world != 0 {
		return nil, fmt.Errorf("torch: tensor-parallel world %d must divide heads %d, d_model %d and ff %d",
			world, cfg.Heads, cfg.DModel, cfg.FF)
	}
	// Upload order is device-address order: tables, then per block both
	// norms before the six projections, then the final norm.
	m := &TransformerEncoder{Dev: dev, Cfg: cfg}
	table, err := replicate(dev, ref.Embed.Table)
	if err != nil {
		return nil, err
	}
	m.Embed = &Embedding{Dev: dev, Vocab: cfg.Vocab, Dim: cfg.DModel, Table: table}
	if m.Pos, err = replicate(dev, ref.Pos); err != nil {
		return nil, err
	}
	for _, blk := range ref.Blocks {
		attn := &MultiHeadAttention{Dev: dev, Heads: cfg.Heads / world}
		b := &TransformerBlock{Dev: dev, Attn: attn, Act: &GELU{Dev: dev}}
		if b.Ln1, err = replicateNorm(dev, blk.Ln1); err != nil {
			return nil, err
		}
		if b.Ln2, err = replicateNorm(dev, blk.Ln2); err != nil {
			return nil, err
		}
		for _, p := range []struct {
			dst **projection
			ref *projection
		}{{&attn.Wq, blk.Attn.Wq}, {&attn.Wk, blk.Attn.Wk}, {&attn.Wv, blk.Attn.Wv}, {&attn.Wo, blk.Attn.Wo},
			{&b.Fc1, blk.Fc1}, {&b.Fc2, blk.Fc2}} {
			if *p.dst, err = shardProjection(dev, p.ref, rank, world); err != nil {
				return nil, err
			}
		}
		m.Blocks = append(m.Blocks, b)
	}
	if m.Final, err = replicateNorm(dev, ref.Final); err != nil {
		return nil, err
	}
	return &TPShard{Dev: dev, Cfg: cfg, model: m}, nil
}

// Layers returns the number of transformer blocks.
func (s *TPShard) Layers() int { return len(s.model.Blocks) }

// PendingGather returns the column shard the last phase produced and
// the full-width destination the next phase consumes. The node's
// all-gather collective fills dst from every rank's shard.
func (s *TPShard) PendingGather() (shard, dst *Tensor) { return s.shard, s.full }

// produced records a phase's column shard and allocates the full-width
// [seq, cols] buffer the next collective gathers it into.
func (s *TPShard) produced(shard *Tensor, cols int) (err error) {
	s.shard = shard
	s.full, err = s.Dev.NewTensor(s.x.Dim(0), cols)
	return err
}

// StartForward begins a sequence: uploads the ids, gathers embeddings
// and adds the positional prefix. No collective needed — the embedding
// is replicated.
func (s *TPShard) StartForward(ids []int32) error {
	if err := validateTokenIDs(ids, s.Cfg.Vocab); err != nil {
		return err
	}
	addr, err := s.Dev.UploadLabels(ids)
	if err != nil {
		return err
	}
	if s.x, err = s.model.embed(addr, len(ids), 0); err != nil {
		return err
	}
	s.shard, s.full = nil, nil
	return nil
}

// AttnCtx runs block blk's ln1 and the rank's local attention heads,
// producing the context column shard [seq, DModel/World]. Next
// collective: gather the full context.
func (s *TPShard) AttnCtx(blk int) error {
	b := s.model.Blocks[blk]
	n1, err := b.Ln1.Forward(s.x)
	if err != nil {
		return err
	}
	merged, err := b.Attn.context(n1)
	if err != nil {
		return err
	}
	return s.produced(merged, s.Cfg.DModel)
}

// AttnOut consumes the gathered full context and produces the output
// projection's column shard. Next collective: gather the full attention
// output.
func (s *TPShard) AttnOut(blk int) error {
	o, err := s.model.Blocks[blk].Attn.Wo.apply(s.Dev, s.full)
	if err != nil {
		return err
	}
	return s.produced(o, s.Cfg.DModel)
}

// MLPAct consumes the gathered attention output: adds the residual,
// runs ln2 and the rank's fc1 column shard plus GELU. Next collective:
// gather the full [seq, FF] activation.
func (s *TPShard) MLPAct(blk int) error {
	h, act, err := s.model.Blocks[blk].mlpAct(s.x, s.full)
	if err != nil {
		return err
	}
	s.h = h
	return s.produced(act, s.Cfg.FF)
}

// MLPOut consumes the gathered full GELU activation and produces the
// fc2 column shard. Next collective: gather the full MLP output.
func (s *TPShard) MLPOut(blk int) error {
	f2, err := s.model.Blocks[blk].Fc2.apply(s.Dev, s.full)
	if err != nil {
		return err
	}
	return s.produced(f2, s.Cfg.DModel)
}

// EndBlock consumes the gathered full MLP output and closes block blk
// with the second residual add, leaving the stream ready for the next
// block's AttnCtx.
func (s *TPShard) EndBlock(blk int) error {
	x, err := s.model.Blocks[blk].residual(s.h, s.full)
	if err != nil {
		return err
	}
	s.x = x
	s.shard, s.full = nil, nil
	return nil
}

// Output applies the replicated final layer norm and returns the
// [seq, DModel] activation — bitwise identical on every rank, and to
// the single-device encoder's Forward with the same weights.
func (s *TPShard) Output() (*Tensor, error) { return s.model.Final.Forward(s.x) }
