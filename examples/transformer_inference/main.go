// Transformer inference on the detailed timing model: a small N-layer
// encoder (embedding + positional add, pre-LN blocks with multi-head
// attention and a GELU feed-forward, final layernorm) run over a batch
// of sequences. Per layer the forward pass issues ~20 small
// heterogeneous kernels — batched NN/NT GEMMs, softmax, layernorm,
// GELU, head permutes, residual adds — exactly the kernel population the
// paper found dominates ML workloads. The demo runs the batch twice:
// once with every sequence's kernel chain on its own CUDA stream
// (overlapping in the multi-grid dispatcher), once serialized on the
// default stream, verifies both against the CPU oracle, and reports the
// per-kernel stats and the overlap speedup.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

const (
	nSeqs  = 4
	seqLen = 12
)

func main() {
	res, err := core.RunTransformerSample(0, nSeqs, seqLen)
	if err != nil {
		log.Fatal(err)
	}
	cfg := res.Config
	fmt.Printf("transformer encoder: %d layers, %d heads, d_model %d, ff %d — %d sequences × %d tokens\n",
		cfg.Layers, cfg.Heads, cfg.DModel, cfg.FF, res.Seqs, res.SeqLen)
	fmt.Printf("%-20s %9s %14s %12s\n", "kernel", "launches", "warp instrs", "cycles")
	for _, a := range res.PerKernel {
		fmt.Printf("%-20s %9d %14d %12d\n", a.Name, a.Launches, a.WarpInstrs, a.Cycles)
	}
	fmt.Printf("max |sim - cpu| = %.2g over %d outputs\n", res.MaxAbsDiff, res.Seqs*res.SeqLen*cfg.DModel)
	fmt.Printf("%d sequences on %d concurrent streams: %d cycles (IPC %.2f)\n",
		res.Seqs, res.Seqs, res.TotalCycles, res.IPC())
	fmt.Printf("same batch serialized on the default stream: %d cycles\n", res.SerializedCycles)
	fmt.Printf("overlap speedup: %.2fx\n", res.Speedup())
}
