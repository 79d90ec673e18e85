package main

// Multi-device workload drivers: -devices N routes the train and
// transformer workloads through internal/multigpu, simulating N GTX
// 1050s coupled by a modelled NVLink fabric. -j controls how many host
// workers step the devices concurrently; as everywhere in the repo it
// changes wall-clock only, never results.

import (
	"fmt"
	"os"

	"repro/internal/aerial"
	"repro/internal/multigpu"
)

// runMultiTrainWorkload trains the sample encoder data-parallel across
// -devices simulated GPUs: per-device replicas, per-rank sequences, a
// modelled ring all-reduce feeding SGD with lr/N. The driver verifies
// every rank's loss against its CPU mirror and that the replicas' final
// weights are byte-identical. smoke_test.go pins the summary lines.
func runMultiTrainWorkload(o workloadOpts) error {
	const seqLen = 8
	cfg := multigpu.Config{
		Devices: o.devices, Workers: o.workers,
		Replay: o.replay, ReplayResampleEvery: o.resampleEvery,
	}
	res, err := multigpu.RunDPTrain(cfg, o.steps, seqLen)
	if err != nil {
		return err
	}
	fmt.Printf("multi-GPU train workload: data-parallel across %d devices — %d steps × %d tokens per rank, lr %g (per replica), %d host workers\n",
		res.Devices, res.Steps, res.SeqLen, res.LR, res.Workers)
	for step := range res.Losses {
		fmt.Printf("step %d losses:", step)
		for r, l := range res.Losses[step] {
			fmt.Printf(" rank%d %.4f", r, l)
		}
		fmt.Println()
	}
	fmt.Printf("max |device - cpu mirror| loss diff %.2g; final weights byte-identical across devices (digest %016x)\n",
		res.MaxLossDiff, res.WeightsDigest)
	fmt.Printf("throughput %.2f tokens/Mcycle across the node: %d modelled cycles\n",
		res.TokensPerMcycle(), res.Cycles)
	fmt.Printf("nvlink: %d transfers, %d bytes, %d link-occupancy cycles, %d stall cycles\n",
		res.NVLink.Transfers, res.NVLink.BytesMoved, res.NVLink.OccupancyCycles, res.NVLink.StallCycles)
	if res.Replay {
		fmt.Printf("replay: %d hits, %d misses across devices\n", res.ReplayHits, res.ReplayMisses)
	}
	aerial.DeviceTable("per-device engine counters", res.PerDevice).WriteText(os.Stdout)
	return nil
}

// runMultiTransformerWorkload runs tensor-parallel encoder inference
// across -devices simulated GPUs: column-sharded GEMMs with a modelled
// ring all-gather at every block boundary, each sequence's output
// verified bitwise against the single-device reference by the driver.
func runMultiTransformerWorkload(o workloadOpts) error {
	const seqs, seqLen = 2, 12
	cfg := multigpu.Config{Devices: o.devices, Workers: o.workers}
	res, err := multigpu.RunTPInfer(cfg, seqs, seqLen)
	if err != nil {
		return err
	}
	fmt.Printf("multi-GPU transformer workload: tensor-parallel across %d devices — %d sequences × %d tokens, %d layers, %d host workers\n",
		res.Devices, res.Seqs, res.SeqLen, res.Layers, res.Workers)
	fmt.Printf("outputs bitwise identical to the single-device reference on every rank (digest %016x)\n",
		res.OutputDigest)
	fmt.Printf("throughput %.2f tokens/Mcycle: %d modelled cycles, %d all-gathers\n",
		res.TokensPerMcycle(), res.Cycles, res.Gathers)
	fmt.Printf("nvlink: %d transfers, %d bytes, %d link-occupancy cycles, %d stall cycles\n",
		res.NVLink.Transfers, res.NVLink.BytesMoved, res.NVLink.OccupancyCycles, res.NVLink.StallCycles)
	aerial.DeviceTable("per-device engine counters", res.PerDevice).WriteText(os.Stdout)
	return nil
}
