// Command aerialvision runs a conv_sample case and writes the full
// AerialVision time-series data as CSV files (one per metric), the data
// behind the paper's Figs. 9-25, for external plotting.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/serve"
)

// writeFile creates path, fills it through write and reports it with an
// optional note; file errors are fatal.
func writeFile(path, note string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s%s\n", path, note)
}

// writeKernelMem writes the per-kernel memory-counter table.
func writeKernelMem(path string, kernels []cudart.KernelStats) {
	writeFile(path, "", func(w io.Writer) error {
		fmt.Fprintln(w, "kernel,l2_accesses,l2_hits,l2_misses,dram_accesses,dram_rowhits,mem_stall_cycles")
		for _, k := range kernels {
			fmt.Fprintf(w, "%s#%d,%d,%d,%d,%d,%d,%d\n",
				k.Name, k.LaunchID, k.L2Accesses, k.L2Hits, k.L2Misses,
				k.DRAMAccesses, k.DRAMRowHits, k.MemStallCycles)
		}
		return nil
	})
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "aerialvision:", err)
	os.Exit(1)
}

// writeKernelReplay runs the transformer batch in hybrid replay mode and
// writes the per-kernel replay coverage table.
func writeKernelReplay(path string, resampleEvery int) {
	res, err := core.RunTransformerReplay(1, 1, 12, 4, resampleEvery, true, true)
	if err != nil {
		die(err)
	}
	writeFile(path, fmt.Sprintf(" (replay coverage %.1f%%)", 100*res.Stats.ReplayCoverage()),
		aerial.KernelReplayTable("", res.PerKernel).WriteCSV)
}

// writeDecodeThroughput runs the repeated KV-cached greedy-decode batch
// in detailed and hybrid replay mode and writes the throughput
// comparison as decode_throughput.csv.
func writeDecodeThroughput(path string) {
	const (
		seqs, promptLen, newTokens = 2, 4, 6
		iters                      = 4
	)
	modes := []string{"detailed", "hybrid"}
	var runs []*core.DecodeReplayResult
	for _, mode := range modes {
		res, err := core.RunDecodeReplay(1, seqs, promptLen, newTokens, iters, 0, true, mode == "hybrid")
		if err != nil {
			die(err)
		}
		runs = append(runs, res)
	}
	writeFile(path, fmt.Sprintf(" (hybrid coverage %.1f%%)", 100*runs[1].Stats.ReplayCoverage()),
		aerial.DecodeThroughputTable("", modes, runs).WriteCSV)
}

// writeTrainLoss runs the transformer training-step workload in hybrid
// replay mode and writes the loss curve (device vs CPU mirror, with
// per-step replay attribution) as train_loss.csv.
func writeTrainLoss(path string, steps int) {
	res, err := core.RunTrainSample(1, steps, 8, 0, true)
	if err != nil {
		die(err)
	}
	writeFile(path, fmt.Sprintf(" (%d steps, max |device-cpu| loss diff %.2g)", res.Iters, res.MaxLossDiff),
		aerial.TrainLossTable("", res).WriteCSV)
}

// writeServeLatency runs a seeded open-loop serving scenario under
// continuous batching and writes the latency-percentiles-over-time
// windows as serve_latency.csv.
func writeServeLatency(path string, rate float64, requests int) {
	tr := serve.Poisson(1, rate, requests, 12, 2)
	res, err := serve.Run(serve.Config{}, tr)
	if err != nil {
		die(err)
	}
	writeFile(path, fmt.Sprintf(" (goodput %.1f req/Mcycle vs offered %.1f)", res.Goodput(), tr.OfferedLoad()),
		aerial.ServeLatencyTable("", res.LatencyOverTime(8)).WriteCSV)
}

func main() {
	dir := flag.String("dir", "fwd", "direction: fwd | bwddata | bwdfilter")
	algo := flag.String("algo", "fft", "convolution algorithm")
	out := flag.String("o", "aerial_out", "output directory for CSV files")
	replay := flag.Bool("replay", false, "additionally run the transformer batch in hybrid replay mode and write kernel_replay.csv (per-kernel replay coverage)")
	resample := flag.Int("replay-resample", 0, "with -replay: re-simulate every Nth replay-cache hit in detail (0 = never)")
	decodeFlag := flag.Bool("decode", false, "additionally run the repeated KV-cached decode batch in detailed and hybrid replay mode and write decode_throughput.csv")
	serveFlag := flag.Bool("serve", false, "additionally run a seeded open-loop serving scenario and write serve_latency.csv (latency percentiles over serving time)")
	serveRate := flag.Float64("serve-rate", 40, "with -serve: offered Poisson arrival rate in requests per million cycles")
	serveReqs := flag.Int("serve-requests", 16, "with -serve: requests in the generated stream")
	trainFlag := flag.Bool("train", false, "additionally run the transformer training-step workload in hybrid replay mode and write train_loss.csv (device vs CPU-mirror loss curve)")
	trainSteps := flag.Int("train-steps", 4, "with -train: training steps to run")
	flag.Parse()

	res, err := core.RunConvSample(core.GTX1080Ti, core.ConvDirection(*dir), *algo, core.DefaultConvShape())
	if err != nil {
		fmt.Fprintln(os.Stderr, "aerialvision:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	write := func(name string, rowNames []string, rows [][]float64) {
		writeFile(filepath.Join(*out, name), "", func(w io.Writer) error { return aerial.CSV(w, rowNames, rows) })
	}

	st := res.Engine.Stats()
	for pi, ch := range res.Engine.Partitions() {
		labels := make([]string, ch.NumBanks())
		for b := range labels {
			labels[b] = fmt.Sprintf("bank%d", b)
		}
		write(fmt.Sprintf("dram_efficiency_p%d.csv", pi), labels, ch.EfficiencySeries())
		write(fmt.Sprintf("dram_utilization_p%d.csv", pi), labels, ch.UtilizationSeries())
	}
	// per-kernel memory counters (bandwidth-aware hierarchy attribution):
	// a tabular CSV with named columns, one row per launch — unlike the
	// time-series files, where aerial.CSV's bucket-index header applies
	writeKernelMem(filepath.Join(*out, "kernel_mem.csv"), res.Kernels)
	write("global_ipc.csv", []string{"ipc"}, [][]float64{st.GlobalIPCSeries()})
	shader := st.ShaderIPCSeries()
	labels := make([]string, len(shader))
	for i := range labels {
		labels[i] = fmt.Sprintf("shader%d", i)
	}
	write("shader_ipc.csv", labels, shader)
	names, series := st.WarpIssueBreakdown()
	write("warp_breakdown.csv", names, series)
	if *replay {
		writeKernelReplay(filepath.Join(*out, "kernel_replay.csv"), *resample)
	}
	if *decodeFlag {
		writeDecodeThroughput(filepath.Join(*out, "decode_throughput.csv"))
	}
	if *serveFlag {
		writeServeLatency(filepath.Join(*out, "serve_latency.csv"), *serveRate, *serveReqs)
	}
	if *trainFlag {
		writeTrainLoss(filepath.Join(*out, "train_loss.csv"), *trainSteps)
	}
}
