package main

import (
	"cmp"
	"flag"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/timing"
)

// decodeWorkload runs the KV-cached autoregressive decode batch in the
// detailed model: -streams prompts of -prompt tokens greedy-decode -gen
// tokens each (verified token-for-token against the GenerateCPU oracle),
// once stream-overlapped and once serialized; then the same batch
// repeats in hybrid replay mode so the steady-state decode steps retire
// from the replay cache.
var decodeWorkload = workload{
	name: "decode",
	desc: "runs the KV-cached greedy-decode batch (-streams sequences, -prompt prefill + -gen generated tokens) in the detailed model, then repeats it in hybrid replay mode and reports tokens/sec and replay coverage",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		streams := fs.Int("streams", 1, "sequences in the batch, each decode chain on its own CUDA stream")
		prompt, gen := decodeFlags(fs, "")
		resample := resampleFlag(fs, "in the hybrid pass: ")
		return func(rep *aerial.Report) error {
			if err := cmp.Or(atLeast("streams", *streams, 1), checkDecode(*prompt, *gen)); err != nil {
				return err
			}
			res, err := core.RunDecodeSample(*workers, *streams, *prompt, *gen)
			if err != nil {
				return err
			}
			rep.Printf("decode workload: %d layers, %d heads, d_model %d — %d sequences, prompt %d + %d generated tokens, %d kernel launches\n",
				res.Config.Layers, res.Config.Heads, res.Config.DModel,
				res.Seqs, res.PromptLen, res.NewTokens, res.Launches)
			rep.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx)\n",
				res.Seqs, res.TotalCycles, res.SerializedCycles, res.Speedup())
			clockMHz := timing.GTX1050().ClockMHz
			tokens := res.Seqs * res.NewTokens
			tokensPerSec := float64(tokens) / (float64(res.TotalCycles) / (clockMHz * 1e6))
			rep.Printf("throughput %.2f tokens/Mcycle (%.0f tokens/sec at the %.0f MHz modelled clock)\n",
				res.TokensPerMcycle(), tokensPerSec, clockMHz)

			const iters = 4
			hyb, err := core.RunDecodeReplay(*workers, *streams, *prompt, *gen, iters, *resample, true, true)
			if err != nil {
				return err
			}
			rep.Printf("replay: %d identical generate batches on one engine, %d kernel launches\n",
				hyb.Iters, hyb.Launches)
			printReplayCoverage(rep, &hyb.Stats)
			rep.Printf("cycles: %d first iteration (detailed), %d total; hybrid throughput %.2f tokens/Mcycle\n",
				hyb.FirstIterCycles, hyb.TotalCycles, hyb.TokensPerMcycle())
			rep.Table(aerial.KernelReplayTable("per-kernel replay coverage", hyb.PerKernel))
			rep.Table(aerial.DecodeThroughputTable("", []string{"detailed", "hybrid"},
				[]*core.DecodeReplayResult{res.DecodeReplayResult, hyb}))
			return nil
		}
	},
}

// decodeFlags defines -prompt and -gen.
func decodeFlags(fs *flag.FlagSet, when string) (prompt, gen *int) {
	return fs.Int("prompt", 4, when+"prompt tokens each sequence prefills"),
		fs.Int("gen", 8, when+"tokens each sequence greedy-decodes")
}

func checkDecode(prompt, gen int) error {
	return cmp.Or(atLeast("prompt", prompt, 1), atLeast("gen", gen, 1))
}
