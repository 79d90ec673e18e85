package multigpu

// Tensor-parallel transformer inference on the node: one model, its
// weights column-sharded across every device (torch.TPShard), each
// sequence computed cooperatively. Per block the schedule is five
// compute phases separated by four all-gathers — attention context,
// attention output, GELU activation, MLP output — each phase stepped
// concurrently across ranks on the host pool, each gather performed by
// the coordinator and priced as a ring all-gather on the fabric.
//
// Because every shard keeps the full K dimension of its GEMMs and the
// gathers only move bytes, each rank's final activation is bitwise
// identical to the single-device encoder's — the driver checks exactly
// that, per sequence, against the untouched reference model.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/nvlink"
	"repro/internal/torch"
)

// TPInferResult summarises a tensor-parallel inference run.
type TPInferResult struct {
	Devices int
	Workers int
	Seqs    int
	SeqLen  int
	Layers  int

	Cycles  uint64
	Gathers uint64 // all-gather collectives issued
	// OutputDigest is FNV-1a over rank 0's output activation bytes of
	// every sequence; the driver has already verified all ranks (and the
	// single-device reference) produce the same bytes.
	OutputDigest uint64

	PerDevice []DeviceStats
	NVLink    nvlink.Stats
}

// TokensPerMcycle returns processed tokens per million modelled cycles.
func (r *TPInferResult) TokensPerMcycle() float64 {
	return float64(r.Seqs*r.SeqLen) / (float64(r.Cycles) / 1e6)
}

// gather runs one all-gather collective over every shard's pending
// (shard, destination) pair.
func tpGather(n *Node, shards []*torch.TPShard) error {
	world := len(shards)
	src := make([]*torch.Tensor, world)
	dst := make([]*torch.Tensor, world)
	for r, s := range shards {
		src[r], dst[r] = s.PendingGather()
	}
	return n.AllGatherCols(src, dst)
}

// RunTPInfer runs `seqs` sequences of `seqLen` tokens through a
// tensor-parallel replica of the sample encoder sharded across the
// node's devices, verifying every sequence bitwise against the
// single-device reference.
func RunTPInfer(cfg Config, seqs, seqLen int) (*TPInferResult, error) {
	mcfg := core.DefaultTransformerConfig()
	if seqs < 1 {
		seqs = 1
	}
	if seqLen < 1 {
		seqLen = 1
	}
	if seqLen > mcfg.MaxSeq {
		return nil, fmt.Errorf("multigpu: seqLen %d exceeds MaxSeq %d", seqLen, mcfg.MaxSeq)
	}
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	world := n.World()

	// The reference model lives on a functional-only device (no timing
	// runner): it is the weight source for the shards and the exact
	// oracle for every sequence.
	refDev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return nil, err
	}
	ref, err := torch.NewTransformerEncoder(refDev, rand.New(rand.NewSource(7)), mcfg)
	if err != nil {
		return nil, err
	}

	shards := make([]*torch.TPShard, world)
	for r := 0; r < world; r++ {
		// Sequential construction: NewTPShard reads the shared reference
		// weights back to the host.
		if shards[r], err = torch.NewTPShard(n.Devs[r], ref, r, world); err != nil {
			return nil, err
		}
		n.Sessions[r].Pin()
	}

	res := &TPInferResult{
		Devices: world, Workers: n.Workers(), Seqs: seqs, SeqLen: seqLen,
		Layers: mcfg.Layers,
	}
	digest := fnv.New64a()
	outs := make([][]float32, world)
	for _, ids := range core.TransformerBatch(seqs, seqLen, mcfg.Vocab) {
		if err := n.Parallel(func(r int) error { return shards[r].StartForward(ids) }); err != nil {
			return nil, err
		}
		for blk := 0; blk < shards[0].Layers(); blk++ {
			for _, phase := range []struct {
				name string
				f    func(s *torch.TPShard, blk int) error
			}{
				{"attn-ctx", (*torch.TPShard).AttnCtx},
				{"attn-out", (*torch.TPShard).AttnOut},
				{"mlp-act", (*torch.TPShard).MLPAct},
				{"mlp-out", (*torch.TPShard).MLPOut},
			} {
				if err := n.Parallel(func(r int) error { return phase.f(shards[r], blk) }); err != nil {
					return nil, fmt.Errorf("multigpu: block %d %s: %w", blk, phase.name, err)
				}
				if err := tpGather(n, shards); err != nil {
					return nil, fmt.Errorf("multigpu: block %d %s gather: %w", blk, phase.name, err)
				}
				res.Gathers++
			}
			if err := n.Parallel(func(r int) error { return shards[r].EndBlock(blk) }); err != nil {
				return nil, fmt.Errorf("multigpu: block %d close: %w", blk, err)
			}
		}
		if err := n.Parallel(func(r int) error {
			y, err := shards[r].Output()
			if err != nil {
				return err
			}
			outs[r] = y.ToHost()
			return nil
		}); err != nil {
			return nil, err
		}

		// Oracle: bitwise equality against the single-device forward.
		refY, err := ref.Forward(ids)
		if err != nil {
			return nil, err
		}
		want := refY.ToHost()
		for r := 0; r < world; r++ {
			if len(outs[r]) != len(want) {
				return nil, fmt.Errorf("multigpu: rank %d output has %d elements, reference %d",
					r, len(outs[r]), len(want))
			}
			for i := range want {
				if math.Float32bits(outs[r][i]) != math.Float32bits(want[i]) {
					return nil, fmt.Errorf("multigpu: rank %d output[%d] = %g, reference %g (not bitwise identical)",
						r, i, outs[r][i], want[i])
				}
			}
		}
		buf := make([]byte, 4*len(want))
		for i, v := range outs[0] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		digest.Write(buf)

		// Free per-sequence activations.
		if err := n.Parallel(func(r int) error { return n.Sessions[r].EndIteration() }); err != nil {
			return nil, err
		}
	}
	res.OutputDigest = digest.Sum64()

	// End-of-run rendezvous, as in the training driver.
	res.Cycles = n.Cycle()
	if err := n.advanceAll(res.Cycles); err != nil {
		return nil, err
	}
	for r := 0; r < world; r++ {
		res.PerDevice = append(res.PerDevice, deviceStats(n, r, n.Devs[r].Ctx.KernelLogLen()))
	}
	res.NVLink = n.Fabric.Stats()
	return res, nil
}
