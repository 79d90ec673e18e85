package multigpu

// Data-parallel training on the node: every device holds a full
// TransformerTrainer replica (same seed → identical weights, and —
// because the first-fit allocator is deterministic — identical device
// addresses), each step feeds every rank a distinct sequence, the
// coordinator all-reduces the gradients over the modelled fabric, and
// every replica applies the same SGD update with lr/N (summed gradients
// × lr/N = gradient averaging). The replicas therefore stay bitwise in
// lock-step: after every step each device holds byte-identical weights.
//
// The oracle is N CPUTrainState mirrors driven the same way: per-rank
// ForwardBackward, a host-side all-reduce in the same rank order (so
// the float32 summation rounding matches the coordinator's exactly),
// then ApplySGD(lr/N) each.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nvlink"
	"repro/internal/torch"
)

// DeviceStats is one device's share of a node run.
type DeviceStats struct {
	Device              int
	Cycles              uint64
	Instructions        uint64
	L2Accesses          uint64
	DRAMAccesses        uint64
	FastForwardedCycles uint64
	ReplayHits          uint64
	ReplayMisses        uint64
	Launches            int
}

// DPTrainResult summarises a data-parallel training run.
type DPTrainResult struct {
	Devices int
	Workers int
	Steps   int
	SeqLen  int
	LR      float32 // per-replica rate (global lr / devices)

	Cycles    uint64      // node clock at the end of the run
	Losses    [][]float32 // [step][rank] device loss
	CPULosses [][]float32 // [step][rank] mirror loss

	MaxLossDiff float64
	// WeightsDigest is FNV-1a over rank 0's final weight bytes in Params
	// order; the driver has already verified every rank holds the same
	// bytes.
	WeightsDigest uint64

	Replay       bool
	ReplayHits   uint64 // merged across devices
	ReplayMisses uint64

	PerDevice []DeviceStats
	NVLink    nvlink.Stats
}

// TokensPerMcycle returns trained tokens (across all replicas) per
// million modelled cycles.
func (r *DPTrainResult) TokensPerMcycle() float64 {
	return float64(r.Devices*r.Steps*r.SeqLen) / (float64(r.Cycles) / 1e6)
}

// dpSequence builds rank r's token sequence for one step — same shape
// as the single-device sample's but decorrelated across ranks.
func dpSequence(step, rank, seqLen, vocab int) []int32 {
	ids := make([]int32, seqLen)
	for j := range ids {
		ids[j] = int32((step*17 + rank*29 + j*3 + 1) % vocab)
	}
	return ids
}

// deviceStats snapshots one device's counters.
func deviceStats(n *Node, rank, launches int) DeviceStats {
	st := n.Sessions[rank].Eng.Stats()
	return DeviceStats{
		Device:              rank,
		Cycles:              n.Sessions[rank].Eng.Cycle(),
		Instructions:        st.Instructions,
		L2Accesses:          st.L2Accesses,
		DRAMAccesses:        st.DRAMAccesses,
		FastForwardedCycles: st.FastForwardedCycles,
		ReplayHits:          st.ReplayHits,
		ReplayMisses:        st.ReplayMisses,
		Launches:            launches,
	}
}

// RunDPTrain trains the sample encoder data-parallel across the node's
// devices for `steps` steps of `seqLen` tokens per rank.
func RunDPTrain(cfg Config, steps, seqLen int) (*DPTrainResult, error) {
	mcfg := core.DefaultTransformerConfig()
	if steps < 1 {
		steps = 1
	}
	if seqLen < 1 {
		seqLen = 1
	}
	if seqLen > mcfg.MaxSeq {
		return nil, fmt.Errorf("multigpu: train seqLen %d exceeds MaxSeq %d", seqLen, mcfg.MaxSeq)
	}
	n, err := NewNode(cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	world := n.World()
	lr := float32(core.DefaultTrainLR) / float32(world)

	trainers := make([]*torch.TransformerTrainer, world)
	mirrors := make([]*torch.CPUTrainState, world)
	// Replica construction is per-rank-local and could ride the pool, but
	// building on the coordinator keeps NewCPUTrainState's weight
	// readbacks trivially race-free; steady-state steps dominate anyway.
	for r := 0; r < world; r++ {
		dev := n.Devs[r]
		model, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(7)), mcfg)
		if err != nil {
			return nil, err
		}
		if trainers[r], err = torch.NewTransformerTrainer(dev, model, lr); err != nil {
			return nil, err
		}
		mirrors[r] = torch.NewCPUTrainState(model)
		// Training frees mid-step: prime, as in the single-device sample.
		if err := n.Sessions[r].PrimeArena(); err != nil {
			return nil, err
		}
		n.Sessions[r].Pin()
	}

	res := &DPTrainResult{
		Devices: world, Workers: n.Workers(), Steps: steps, SeqLen: seqLen,
		LR: lr, Replay: cfg.Replay,
	}
	devLoss := make([]float32, world)
	for step := 0; step < steps; step++ {
		// Compute phase: every rank runs forward+backward on its own
		// sequence, concurrently on the host pool.
		if err := n.Parallel(func(r int) error {
			loss, err := trainers[r].ForwardBackward(dpSequence(step, r, seqLen, mcfg.Vocab))
			devLoss[r] = loss
			return err
		}); err != nil {
			return nil, fmt.Errorf("multigpu: train step %d: %w", step, err)
		}
		res.Losses = append(res.Losses, append([]float32(nil), devLoss...))

		// Collective: ring all-reduce of every replica's gradients.
		grads := make([][]*torch.Tensor, world)
		for r := 0; r < world; r++ {
			for _, p := range trainers[r].Opt.Params {
				grads[r] = append(grads[r], p.Grad)
			}
		}
		if err := n.AllReduce(grads); err != nil {
			return nil, fmt.Errorf("multigpu: train step %d: %w", step, err)
		}

		// Update phase: each replica applies SGD(lr/N) to the summed
		// gradients, then ends its session's iteration. The per-rank
		// half of the mirror step (forward+backward on rank r's mirror)
		// rides the same phase — it is rank-local host math.
		cpuLoss := make([]float32, world)
		if err := n.Parallel(func(r int) error {
			if err := trainers[r].Opt.Step(); err != nil {
				return err
			}
			if err := n.Sessions[r].EndIteration(); err != nil {
				return err
			}
			cpuLoss[r] = mirrors[r].ForwardBackward(dpSequence(step, r, seqLen, mcfg.Vocab))
			return nil
		}); err != nil {
			return nil, fmt.Errorf("multigpu: train step %d update: %w", step, err)
		}

		// Mirror collective, same rank-ordered summation as AllReduce.
		torch.AllReduceCPUGrads(mirrors)
		for r := 0; r < world; r++ {
			mirrors[r].ApplySGD(lr)
		}
		res.CPULosses = append(res.CPULosses, cpuLoss)
		for r := 0; r < world; r++ {
			d := math.Abs(float64(devLoss[r] - cpuLoss[r]))
			if d > res.MaxLossDiff {
				res.MaxLossDiff = d
			}
			if d > core.TrainLossTolerance {
				return nil, fmt.Errorf("multigpu: step %d rank %d loss diverged: device %g, cpu oracle %g",
					step, r, devLoss[r], cpuLoss[r])
			}
		}
	}

	// Replicas must have stayed bitwise in lock-step.
	digest := fnv.New64a()
	for p, param := range trainers[0].Opt.Params {
		want := make([]byte, 4*param.W.Count())
		n.Devs[0].Ctx.Mem.Read(param.W.Ptr, want)
		digest.Write(want)
		for r := 1; r < world; r++ {
			got := make([]byte, len(want))
			n.Devs[r].Ctx.Mem.Read(trainers[r].Opt.Params[p].W.Ptr, got)
			if string(got) != string(want) {
				return nil, fmt.Errorf("multigpu: after %d steps, %s differs between rank 0 and rank %d",
					steps, param.Name, r)
			}
		}
	}
	res.WeightsDigest = digest.Sum64()

	// Close with a node-wide rendezvous: per-rank compute diverges by a
	// few cycles (data-dependent DRAM and cache state), so the run ends
	// on a barrier at the furthest-ahead clock, like any subsequent
	// collective would.
	res.Cycles = n.Cycle()
	if err := n.advanceAll(res.Cycles); err != nil {
		return nil, err
	}
	for r := 0; r < world; r++ {
		res.PerDevice = append(res.PerDevice, deviceStats(n, r, n.Devs[r].Ctx.KernelLogLen()))
		res.ReplayHits += res.PerDevice[r].ReplayHits
		res.ReplayMisses += res.PerDevice[r].ReplayMisses
	}
	res.NVLink = n.Fabric.Stats()
	return res, nil
}
