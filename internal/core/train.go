package core

// The transformer-training sample: the shared driver behind
// `cmd/gpgpusim -workload train` and BenchmarkTrainStep. Each step runs
// the full training pipeline — encoder forward, tied-embedding logits,
// fused softmax+cross-entropy, backward through every block, SGD — as
// one long kernel chain, and is checked step-for-step against the
// independent CPUTrainState host mirror. Each step is one session
// iteration over a primed arena; with replay enabled the steady-state
// steps then retire from the replay cache (the weight updates fail the
// memo read-set check, so replay degrades gracefully to memoized timing
// with functional re-execution).

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/session"
	"repro/internal/torch"
)

// TrainLossTolerance is the permitted |device - CPU oracle| divergence
// of the per-step mean loss (float32 kernels vs float64-reduction host
// math).
const TrainLossTolerance = 5e-2

// DefaultTrainLR is the SGD learning rate used by the sample.
const DefaultTrainLR = 0.05

// TrainResult summarises a multi-step training run; Iters is the step
// count and FirstIterCycles the (always detailed) first step.
type TrainResult struct {
	Config  torch.TransformerConfig
	SeqLen  int
	LR      float32
	Replay  bool
	Workers int
	session.Iterations

	Losses         []float32 // device loss per step
	CPULosses      []float32 // host-mirror loss per step
	StepReplayHits []uint64  // replay-cache hits registered during each step
	MaxLossDiff    float64

	PerKernel []KernelAgg
}

// TokensPerMcycle returns trained tokens per million modelled cycles.
func (r *TrainResult) TokensPerMcycle() float64 {
	return float64(r.Iters*r.SeqLen) / (float64(r.TotalCycles) / 1e6)
}

// trainSequence builds the deterministic token sequence for one step.
func trainSequence(step, seqLen, vocab int) []int32 {
	ids := make([]int32, seqLen)
	for j := range ids {
		ids[j] = int32((step*17 + j*3 + 1) % vocab)
	}
	return ids
}

// RunTrainSample trains the sample encoder for `steps` steps of `seqLen`
// tokens on one GTX 1050 session with `workers` worker goroutines,
// verifying every step's loss against the CPU mirror.
func RunTrainSample(workers, steps, seqLen, resampleEvery int, replay bool) (*TrainResult, error) {
	cfg := DefaultTransformerConfig()
	if seqLen < 1 {
		seqLen = 1
	}
	if seqLen > cfg.MaxSeq {
		return nil, fmt.Errorf("core: train seqLen %d exceeds MaxSeq %d", seqLen, cfg.MaxSeq)
	}

	s, err := sampleSession(workers, resampleEvery, replay)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	model, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		return nil, err
	}
	tr, err := torch.NewTransformerTrainer(s.Dev, model, DefaultTrainLR)
	if err != nil {
		return nil, err
	}
	cpu := torch.NewCPUTrainState(model)
	// weights + gradient buffers are permanent; the primed arena makes
	// step 0's placements match the steady-state steps'
	if err := s.PrimeArena(); err != nil {
		return nil, err
	}
	s.Pin()

	res := &TrainResult{
		Config: cfg, SeqLen: seqLen, LR: DefaultTrainLR, Replay: replay, Workers: workers,
	}
	var prevHits uint64
	res.Iterations, err = s.Iterate(steps, func(step int) error {
		ids := trainSequence(step, seqLen, cfg.Vocab)
		devLoss, err := tr.TrainStep(ids)
		if err != nil {
			return fmt.Errorf("core: train step %d: %w", step, err)
		}
		cpuLoss := cpu.TrainStep(ids, DefaultTrainLR)
		d := math.Abs(float64(devLoss - cpuLoss))
		if d > res.MaxLossDiff {
			res.MaxLossDiff = d
		}
		if d > TrainLossTolerance {
			return fmt.Errorf("core: train step %d loss diverged: device %g, cpu oracle %g",
				step, devLoss, cpuLoss)
		}
		res.Losses = append(res.Losses, devLoss)
		res.CPULosses = append(res.CPULosses, cpuLoss)
		hits := s.Eng.Stats().ReplayHits
		res.StepReplayHits = append(res.StepReplayHits, hits-prevHits)
		prevHits = hits
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.PerKernel = AggregateKernels(res.Log)
	return res, nil
}
