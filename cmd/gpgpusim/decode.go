package main

import (
	"fmt"
	"os"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/timing"
)

// runDecodeWorkload runs the KV-cached autoregressive decode batch in
// the detailed model: -streams prompts of -prompt tokens greedy-decode
// -gen tokens each (verified token-for-token against the GenerateCPU
// oracle), once stream-overlapped and once serialized; then the same
// batch repeats in hybrid replay mode so the steady-state decode steps
// retire from the replay cache. smoke_test.go pins the tokens/sec and
// replay coverage lines.
func runDecodeWorkload(o workloadOpts) error {
	res, err := core.RunDecodeSample(o.workers, o.streams, o.prompt, o.gen)
	if err != nil {
		return err
	}
	fmt.Printf("decode workload: %d layers, %d heads, d_model %d — %d sequences, prompt %d + %d generated tokens, %d kernel launches\n",
		res.Config.Layers, res.Config.Heads, res.Config.DModel,
		res.Seqs, res.PromptLen, res.NewTokens, res.Launches())
	fmt.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx)\n",
		res.Seqs, res.TotalCycles, res.SerializedCycles, res.Speedup())
	clockMHz := timing.GTX1050().ClockMHz
	tokens := res.Seqs * res.NewTokens
	tokensPerSec := float64(tokens) / (float64(res.TotalCycles) / (clockMHz * 1e6))
	fmt.Printf("throughput %.2f tokens/Mcycle (%.0f tokens/sec at the %.0f MHz modelled clock)\n",
		res.TokensPerMcycle(), tokensPerSec, clockMHz)

	const iters = 4
	rep, err := core.RunDecodeReplay(o.workers, o.streams, o.prompt, o.gen, iters, o.resampleEvery, true, true)
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d identical generate batches on one engine, %d kernel launches\n",
		rep.Iters, rep.Launches())
	printReplayCoverage(&rep.Stats)
	fmt.Printf("cycles: %d first iteration (detailed), %d total; hybrid throughput %.2f tokens/Mcycle\n",
		rep.FirstIterCycles, rep.TotalCycles, rep.TokensPerMcycle())
	aerial.KernelReplayTable("per-kernel replay coverage", rep.PerKernel).WriteText(os.Stdout)
	return nil
}
