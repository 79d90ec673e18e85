package core

// The autoregressive-decode sample: the shared driver behind
// `cmd/gpgpusim -workload decode` and BenchmarkDecodeThroughput. Each
// sequence's greedy decode is one long chain of tiny dependent kernels
// (per step and layer: three projections, cache appends, the cached
// attention GEMVs, causal softmax, FF, then logit GEMV + argmax) — the
// many-small-launch population the paper identifies as the cycle-level
// simulator's worst case. RunDecodeReplay repeats identical generate
// batches on one session so the replay cache can memoize the steady-
// state decode steps; RunDecodeSample is two 1-iteration runs, stream-
// overlapped and serialized, compared token for token.

import (
	"fmt"
	"math/rand"

	"repro/internal/session"
	"repro/internal/torch"
)

// DecodeReplayResult summarises a repeated decode run on one session.
type DecodeReplayResult struct {
	Config    torch.TransformerConfig
	Seqs      int
	PromptLen int
	NewTokens int
	Replay    bool
	session.Iterations

	Tokens    [][]int32 // first iteration's generated ids, oracle-verified
	PerKernel []KernelAgg
}

// TokensPerMcycle returns generated tokens per million modelled cycles
// across all iterations.
func (r *DecodeReplayResult) TokensPerMcycle() float64 {
	return float64(r.Seqs*r.NewTokens*r.Iters) / (float64(r.TotalCycles) / 1e6)
}

// RunDecodeReplay runs `iters` identical generate batches (`seqs`
// prompts of `promptLen` tokens greedy-decoding `newTokens` each; every
// sequence's chain on its own CUDA stream when concurrent) on a single
// GTX 1050 session. The first iteration is verified token-for-token
// against GenerateCPU; later iterations must reproduce it bit-exactly
// (replay memoizes timing, not semantics).
func RunDecodeReplay(workers, seqs, promptLen, newTokens, iters, resampleEvery int, concurrent, replay bool) (*DecodeReplayResult, error) {
	cfg := DefaultTransformerConfig()
	if seqs < 1 {
		seqs = 1
	}
	if promptLen < 1 {
		promptLen = 1
	}
	if newTokens < 1 {
		newTokens = 1
	}
	if promptLen+newTokens-1 > cfg.MaxSeq {
		return nil, fmt.Errorf("core: prompt %d + %d generated tokens exceed MaxSeq %d",
			promptLen, newTokens, cfg.MaxSeq)
	}
	prompts := TransformerBatch(seqs, promptLen, cfg.Vocab)

	s, err := sampleSession(workers, resampleEvery, replay)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	dec, err := torch.NewTransformerDecoder(s.Dev, rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		return nil, err
	}
	s.Pin()

	res := &DecodeReplayResult{
		Config: cfg, Seqs: seqs, PromptLen: promptLen, NewTokens: newTokens, Replay: replay,
	}
	res.Iterations, err = s.Iterate(iters, func(it int) error {
		outs, err := dec.GenerateBatch(prompts, newTokens, concurrent)
		if err != nil {
			return err
		}
		if it == 0 {
			res.Tokens = outs
			for i, p := range prompts {
				want, err := dec.GenerateCPU(p, newTokens)
				if err != nil {
					return err
				}
				for j := range want {
					if outs[i][j] != want[j] {
						return fmt.Errorf("core: decode seq %d token %d: device %d, oracle %d",
							i, j, outs[i][j], want[j])
					}
				}
			}
			return nil
		}
		for i := range outs {
			for j := range outs[i] {
				if outs[i][j] != res.Tokens[i][j] {
					return fmt.Errorf("core: replay iteration %d tokens diverged at seq %d token %d", it+1, i, j)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.PerKernel = AggregateKernels(res.Log)
	return res, nil
}

// DecodeSampleResult is the stream-overlapped run plus the cycle count
// of the serialized run it was checked against.
type DecodeSampleResult struct {
	*DecodeReplayResult
	SerializedCycles uint64
}

// Speedup returns the serialized/concurrent cycle ratio.
func (r *DecodeSampleResult) Speedup() float64 {
	return float64(r.SerializedCycles) / float64(r.TotalCycles)
}

// RunDecodeSample greedy-decodes `seqs` prompts of `promptLen` tokens
// for `newTokens` tokens each under the GTX 1050 model with `workers`
// engine worker goroutines, once stream-overlapped and once serialized
// (each on a fresh session, each checked against the GenerateCPU
// oracle), and checks the two runs' tokens against each other.
func RunDecodeSample(workers, seqs, promptLen, newTokens int) (*DecodeSampleResult, error) {
	conc, err := RunDecodeReplay(workers, seqs, promptLen, newTokens, 1, 0, true, false)
	if err != nil {
		return nil, err
	}
	serial, err := RunDecodeReplay(workers, seqs, promptLen, newTokens, 1, 0, false, false)
	if err != nil {
		return nil, err
	}
	for i := range conc.Tokens {
		for j := range conc.Tokens[i] {
			if conc.Tokens[i][j] != serial.Tokens[i][j] {
				return nil, fmt.Errorf("core: stream vs serial decode diverged at seq %d token %d", i, j)
			}
		}
	}
	return &DecodeSampleResult{conc, serial.TotalCycles}, nil
}
