package main

import (
	"cmp"
	"flag"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/multigpu"
	"repro/internal/nvlink"
)

const trainSeqLen = 8

// trainWorkload runs the transformer training-step workload in the
// detailed model: -steps full training steps (forward, tied-embedding
// loss, backward through every block, SGD), each step's device loss
// checked against the CPUTrainState host mirror by the driver. With
// -replay the steady-state steps retire from the replay cache — the
// weight updates fail the memo read-set check, so replay degrades to
// memoized timing with functional re-execution and the loss curve
// tracks the detailed run to float-atomics rounding. -devices N trains
// data-parallel across N simulated GPUs.
var trainWorkload = workload{
	name: "train",
	desc: "runs -steps transformer training steps (forward, loss, backward, SGD) in the detailed model, each step's loss checked against the CPU mirror; -replay retires steady-state steps from the replay cache, -devices N trains data-parallel across N simulated GPUs",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		steps := fs.Int("steps", 4, "training steps to run")
		replay, resample := replayFlags(fs, "retire steady-state steps from the replay cache")
		devices := devicesFlag(fs, "data-parallel training")
		return func(rep *aerial.Report) error {
			if err := cmp.Or(atLeast("devices", *devices, 1), atLeast("steps", *steps, 1), checkReplay(*replay, *resample)); err != nil {
				return err
			}
			if *devices > 1 {
				return runMultiTrain(rep, multigpu.Config{
					Devices: *devices, Workers: *workers, Replay: *replay, ReplayResampleEvery: *resample,
				}, *steps)
			}
			res, err := core.RunTrainSample(*workers, *steps, trainSeqLen, *resample, *replay)
			if err != nil {
				return err
			}
			rep.Printf("train workload: %d layers, %d heads, d_model %d, vocab %d — %d steps × %d tokens, lr %g, %d kernel launches\n",
				res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Config.Vocab,
				res.Iters, res.SeqLen, res.LR, res.Launches())
			rep.Table(aerial.TrainLossTable("training loss (device vs CPU mirror)", res))
			rep.Printf("max |device - cpu| loss diff %.2g (tolerance %g)\n", res.MaxLossDiff, core.TrainLossTolerance)
			rep.Printf("throughput %.2f tokens/Mcycle: %d total cycles, %d first step\n",
				res.TokensPerMcycle(), res.TotalCycles, res.FirstIterCycles)
			if res.Replay {
				printReplayCoverage(rep, &res.Stats)
				rep.Table(aerial.KernelReplayTable("per-kernel replay coverage", res.PerKernel))
			}
			return nil
		}
	},
}

// runMultiTrain trains the sample encoder data-parallel across simulated
// GPUs: per-device replicas, per-rank sequences, a modelled ring
// all-reduce feeding SGD with lr/N. The driver verifies every rank's loss
// against its CPU mirror and that the replicas' final weights are
// byte-identical.
func runMultiTrain(rep *aerial.Report, cfg multigpu.Config, steps int) error {
	res, err := multigpu.RunDPTrain(cfg, steps, trainSeqLen)
	if err != nil {
		return err
	}
	rep.Printf("multi-GPU train workload: data-parallel across %d devices — %d steps × %d tokens per rank, lr %g (per replica), %d host workers\n",
		res.Devices, res.Steps, res.SeqLen, res.LR, res.Workers)
	for step := range res.Losses {
		rep.Printf("step %d losses:", step)
		for r, l := range res.Losses[step] {
			rep.Printf(" rank%d %.4f", r, l)
		}
		rep.Printf("\n")
	}
	rep.Printf("max |device - cpu mirror| loss diff %.2g; final weights byte-identical across devices (digest %016x)\n",
		res.MaxLossDiff, res.WeightsDigest)
	rep.Printf("throughput %.2f tokens/Mcycle across the node: %d modelled cycles\n",
		res.TokensPerMcycle(), res.Cycles)
	printNVLink(rep, res.NVLink)
	if res.Replay {
		rep.Printf("replay: %d hits, %d misses across devices\n", res.ReplayHits, res.ReplayMisses)
	}
	rep.Table(aerial.DeviceTable("per-device engine counters", res.PerDevice))
	return nil
}

// printNVLink prints the fabric counters of a multi-GPU run.
func printNVLink(rep *aerial.Report, st nvlink.Stats) {
	rep.Printf("nvlink: %d transfers, %d bytes, %d link-occupancy cycles, %d stall cycles\n",
		st.Transfers, st.BytesMoved, st.OccupancyCycles, st.StallCycles)
}
