package main

import (
	"fmt"
	"os"

	"repro/internal/aerial"
	"repro/internal/core"
)

// runTrainWorkload runs the transformer training-step workload in the
// detailed model: -steps full training steps (forward, tied-embedding
// loss, backward through every block, SGD), each step's device loss
// checked against the CPUTrainState host mirror by the driver. With
// -replay the steady-state steps retire from the replay cache — the
// weight updates fail the memo read-set check, so replay degrades to
// memoized timing with functional re-execution and the loss curve
// tracks the detailed run to float-atomics rounding. smoke_test.go pins
// the loss-curve and coverage lines.
func runTrainWorkload(o workloadOpts) error {
	const seqLen = 8
	res, err := core.RunTrainSample(o.workers, o.steps, seqLen, o.resampleEvery, o.replay)
	if err != nil {
		return err
	}
	fmt.Printf("train workload: %d layers, %d heads, d_model %d, vocab %d — %d steps × %d tokens, lr %g, %d kernel launches\n",
		res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Config.Vocab,
		res.Iters, res.SeqLen, res.LR, res.Launches())
	aerial.TrainLossTable("training loss (device vs CPU mirror)", res).WriteText(os.Stdout)
	fmt.Printf("max |device - cpu| loss diff %.2g (tolerance %g)\n", res.MaxLossDiff, core.TrainLossTolerance)
	fmt.Printf("throughput %.2f tokens/Mcycle: %d total cycles, %d first step\n",
		res.TokensPerMcycle(), res.TotalCycles, res.FirstIterCycles)
	if res.Replay {
		printReplayCoverage(&res.Stats)
		aerial.KernelReplayTable("per-kernel replay coverage", res.PerKernel).WriteText(os.Stdout)
	}
	return nil
}
