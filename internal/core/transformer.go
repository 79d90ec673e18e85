package core

// The transformer-inference sample: the shared driver behind
// `cmd/gpgpusim -workload transformer [-replay]` (text and, under -o,
// kernel_replay.csv) and BenchmarkTransformerReplay. RunTransformerReplay runs a small encoder
// forward batch `iters` times on one session — the repeated-launch
// pattern hybrid replay mode exists for — and verifies the replay
// contract end to end: iteration 1 simulates in detail (checked against
// the CPU oracle) and warms the cache; every later iteration must
// reproduce iteration 1's outputs exactly even though its kernels retire
// from memoized timing. RunTransformerSample is two 1-iteration runs,
// stream-overlapped and serialized, compared with each other.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// DefaultTransformerConfig sizes the sample encoder.
func DefaultTransformerConfig() torch.TransformerConfig { return torch.SampleTransformerConfig() }

// sampleSession builds the GTX 1050 session the transformer-family
// drivers run on. With replay=true the engine runs in hybrid replay mode
// (resampleEvery as Config.ReplayResampleEvery); replay=false is the
// all-detailed baseline.
func sampleSession(workers, resampleEvery int, replay bool) (*session.Session, error) {
	cfg := timing.GTX1050()
	cfg.ReplayEnabled = replay
	cfg.ReplayResampleEvery = resampleEvery
	return session.New(cfg, workers)
}

// TransformerBatch builds `seqs` deterministic token sequences.
func TransformerBatch(seqs, seqLen, vocab int) [][]int32 {
	batch := make([][]int32, seqs)
	for i := range batch {
		ids := make([]int32, seqLen)
		for j := range ids {
			ids[j] = int32((i*13 + j*5) % vocab)
		}
		batch[i] = ids
	}
	return batch
}

// TransformerReplayResult summarises a repeated-batch run.
type TransformerReplayResult struct {
	Config torch.TransformerConfig
	Seqs   int
	SeqLen int
	session.Iterations

	MaxAbsDiff float64     // first iteration vs the ForwardCPU oracle
	Outputs    [][]float32 // first iteration's activations
}

// RunTransformerReplay runs `iters` identical transformer forward
// batches (`seqs` sequences of `seqLen` tokens; each sequence's chain on
// its own CUDA stream when concurrent, serialized on the default stream
// otherwise) on a single GTX 1050 session with `workers` worker
// goroutines.
func RunTransformerReplay(workers, seqs, seqLen, iters, resampleEvery int, concurrent, replay bool) (*TransformerReplayResult, error) {
	cfg := DefaultTransformerConfig()
	if seqs < 1 {
		seqs = 1
	}
	batch := TransformerBatch(seqs, seqLen, cfg.Vocab)

	s, err := sampleSession(workers, resampleEvery, replay)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		return nil, err
	}
	s.Pin()

	res := &TransformerReplayResult{Config: cfg, Seqs: seqs, SeqLen: seqLen}
	res.Iterations, err = s.Iterate(iters, func(it int) error {
		outs, err := enc.ForwardBatch(batch, concurrent)
		if err != nil {
			return err
		}
		if it == 0 {
			res.Outputs = outs
			for i, ids := range batch {
				want, _ := enc.ForwardCPU(ids)
				for j := range want {
					if d := math.Abs(float64(outs[i][j] - want[j])); d > res.MaxAbsDiff {
						res.MaxAbsDiff = d
					}
				}
			}
			return nil
		}
		// replay memoizes timing, not semantics: repeated iterations
		// must be bit-equal to the detailed first one
		for i := range outs {
			for j := range outs[i] {
				if outs[i][j] != res.Outputs[i][j] {
					return fmt.Errorf("core: replay iteration %d output diverged at seq %d elem %d", it+1, i, j)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TransformerSampleResult is the stream-overlapped run plus the cycle
// count of the serialized run it was checked against.
type TransformerSampleResult struct {
	*TransformerReplayResult
	SerializedCycles uint64
}

// Speedup returns the serialized/concurrent cycle ratio.
func (r *TransformerSampleResult) Speedup() float64 {
	return float64(r.SerializedCycles) / float64(r.TotalCycles)
}

// IPC returns warp instructions per cycle of the concurrent run.
func (r *TransformerSampleResult) IPC() float64 {
	return float64(r.Stats.Instructions) / float64(r.TotalCycles)
}

// RunTransformerSample executes the sample with `seqs` sequences of
// `seqLen` tokens and `workers` engine worker goroutines: one detailed
// stream-overlapped run, one serialized, each on a fresh session and
// checked against the CPU oracle, and the two against each other.
func RunTransformerSample(workers, seqs, seqLen int) (*TransformerSampleResult, error) {
	conc, err := RunTransformerReplay(workers, seqs, seqLen, 1, 0, true, false)
	if err != nil {
		return nil, err
	}
	serial, err := RunTransformerReplay(workers, seqs, seqLen, 1, 0, false, false)
	if err != nil {
		return nil, err
	}
	for i := range conc.Outputs {
		for j := range conc.Outputs[i] {
			if conc.Outputs[i][j] != serial.Outputs[i][j] {
				return nil, fmt.Errorf("core: stream vs serial output diverged at seq %d elem %d", i, j)
			}
		}
	}
	return &TransformerSampleResult{conc, serial.TotalCycles}, nil
}
