// Bank camping: reproduce the paper's §V-B pathology, where a kernel's
// access pattern funnels every request onto one DRAM bank (a new row each
// time) while the other banks sit idle, and contrast it with the same
// kernel striding at unit distance so requests interleave across banks.
//
// The demo runs the strided_saxpy probe twice under the GTX 1050 model —
// once with the camping stride (RowBytes*NumBanks bytes between
// consecutive threads), once streaming — and renders the per-bank DRAM
// efficiency/utilization heat maps AerialVision plots in the paper's
// Figs. 9-14, plus the per-kernel memory counters. Camped traffic shows
// one hot row in the heat map and an average segment latency tens of
// times the streaming run's; spread traffic lights every bank.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/cudart"
)

const (
	ctas    = 4
	threads = 64
)

func run(name string, stride int) {
	res, err := core.RunStridedSaxpy(core.GTX1050, 1, ctas, threads, stride)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Engine.Stats()
	fmt.Printf("\n--- %s (stride %d floats) ---\n", name, stride)
	fmt.Printf("%d cycles, avg segment latency %.1f, DRAM row hits %d/%d, ingress stalls %d\n",
		res.Cycles, st.AvgSegmentLatency(), st.DRAMRowHits, st.DRAMAccesses, st.IngressStallCycles)
	aerial.KernelMemTable("per-kernel memory counters", []cudart.KernelStats{res.Kernel}).WriteText(os.Stdout)
	for pi, ch := range res.Engine.Partitions() {
		reads, writes, _, busy := ch.Totals()
		if reads+writes == 0 {
			continue
		}
		fmt.Printf("partition %d: %d reads, %d writes, %d busy cycles\n", pi, reads, writes, busy)
		aerial.HeatMap(os.Stdout, fmt.Sprintf("DRAM efficiency, partition %d (banks bottom-up)", pi),
			ch.EfficiencySeries(), func(b int) string { return fmt.Sprintf("bank%d", b) },
			res.Engine.Stats().Interval())
		aerial.HeatMap(os.Stdout, fmt.Sprintf("DRAM utilization, partition %d (banks bottom-up)", pi),
			ch.UtilizationSeries(), func(b int) string { return fmt.Sprintf("bank%d", b) },
			res.Engine.Stats().Interval())
	}
}

func main() {
	cfg, err := core.GTX1050.TimingConfig()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bank camping (paper §V-B) vs bank-parallel streaming, GTX 1050 model")
	run("camped", core.CampingStrideFloats(cfg))
	run("streaming", 1)
}
