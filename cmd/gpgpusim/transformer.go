package main

import (
	"cmp"
	"flag"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/multigpu"
)

// transformerWorkload runs the transformer-encoder inference batch in
// the detailed model: -streams sequences, each forward pass on its own
// CUDA stream, verified against the ForwardCPU oracle and compared with
// a serialized run of the same batch. -replay repeats the batch in
// hybrid replay mode instead; -devices N shards it tensor-parallel
// across N simulated GPUs.
var transformerWorkload = workload{
	name: "transformer",
	desc: "runs the encoder inference batch in the detailed model (-streams sequences); -replay repeats the batch in hybrid replay mode, -devices N runs tensor-parallel inference across N simulated GPUs",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		streams := fs.Int("streams", 1, "sequences in the batch, each forward pass on its own CUDA stream")
		replay, resample := replayFlags(fs, "repeat the batch four times on one engine and report cache coverage")
		devices := devicesFlag(fs, "tensor-parallel inference")
		return func(rep *aerial.Report) error {
			if err := cmp.Or(atLeast("devices", *devices, 1), atLeast("streams", *streams, 1), checkReplay(*replay, *resample)); err != nil {
				return err
			}
			switch {
			case *devices > 1 && isSet(fs, "streams"):
				return usagef("-streams only applies to single-device runs: tensor-parallel inference spreads each sequence across all devices instead of across streams")
			case *devices > 1 && *replay:
				return usagef("-replay with -devices only applies to -workload train (the tensor-parallel inference phases are launched once per sequence — nothing repeats)")
			case *devices > 1:
				return runMultiTransformer(rep, *workers, *devices)
			case *replay:
				return runTransformerReplay(rep, *workers, *streams, *resample)
			}
			res, err := core.RunTransformerSample(*workers, *streams, 12)
			if err != nil {
				return err
			}
			rep.Printf("transformer workload: %d layers, %d heads, d_model %d — %d sequences × %d tokens, %d kernel launches\n",
				res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Seqs, res.SeqLen, res.Launches())
			rep.Printf("max |sim - cpu| = %.2g\n", res.MaxAbsDiff)
			rep.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx), IPC %.2f\n",
				res.Seqs, res.TotalCycles, res.SerializedCycles, res.Speedup(), res.IPC())
			rep.Table(aerial.KernelReplayTable("", res.PerKernel))
			return nil
		}
	},
}

// runTransformerReplay repeats the transformer inference batch in hybrid
// replay mode: the first iteration simulates in detail and warms the
// replay cache, later iterations retire from it.
func runTransformerReplay(rep *aerial.Report, workers, streams, resampleEvery int) error {
	const iters = 4
	res, err := core.RunTransformerReplay(workers, streams, 12, iters, resampleEvery, true, true)
	if err != nil {
		return err
	}
	rep.Printf("transformer replay workload: %d layers, %d heads, d_model %d — %d sequences × %d tokens, %d iterations, %d kernel launches\n",
		res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Seqs, res.SeqLen, res.Iters, res.Launches())
	rep.Printf("max |sim - cpu| = %.2g (first iteration; later iterations bit-equal by construction)\n", res.MaxAbsDiff)
	printReplayCoverage(rep, &res.Stats)
	rep.Printf("cycles: %d first iteration (detailed), %d total; %d replayed vs %d detailed kernel cycles",
		res.FirstIterCycles, res.TotalCycles, res.Stats.ReplayedCycles, res.Stats.DetailedKernelCycles)
	if res.Stats.ReplayResamples > 0 {
		rep.Printf("; resample drift %d cycles", res.Stats.ReplayDriftCycles)
	}
	rep.Printf("\n")
	rep.Table(aerial.KernelReplayTable("per-kernel replay coverage", res.PerKernel))
	return nil
}

// runMultiTransformer runs tensor-parallel encoder inference across
// simulated GPUs coupled by a modelled NVLink fabric: column-sharded
// GEMMs with a ring all-gather at every block boundary, each sequence's
// output verified bitwise against the single-device reference by the
// driver. -j is how many host workers step the devices concurrently; as
// everywhere it changes wall-clock only, never results.
func runMultiTransformer(rep *aerial.Report, workers, devices int) error {
	const seqs, seqLen = 2, 12
	res, err := multigpu.RunTPInfer(multigpu.Config{Devices: devices, Workers: workers}, seqs, seqLen)
	if err != nil {
		return err
	}
	rep.Printf("multi-GPU transformer workload: tensor-parallel across %d devices — %d sequences × %d tokens, %d layers, %d host workers\n",
		res.Devices, res.Seqs, res.SeqLen, res.Layers, res.Workers)
	rep.Printf("outputs bitwise identical to the single-device reference on every rank (digest %016x)\n",
		res.OutputDigest)
	rep.Printf("throughput %.2f tokens/Mcycle: %d modelled cycles, %d all-gathers\n",
		res.TokensPerMcycle(), res.Cycles, res.Gathers)
	printNVLink(rep, res.NVLink)
	rep.Table(aerial.DeviceTable("per-device engine counters", res.PerDevice))
	return nil
}
