package main

// The paper's own experiments and tool flows as registry entries: the
// §IV LeNet/MNIST correlation and power study (Figs. 6-8), the §V-A
// conv_sample algorithm sweep with its AerialVision plots (Figs. 9-25),
// the §V-B bank-camping pathology, the memory-bound occupancy sweep, the
// §III-D fault localisation (Figs. 2-3) and the §III-F checkpoint/resume
// round trip (Figs. 4-5).

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/dram"
	"repro/internal/ptx"
	"repro/internal/stats"
	"repro/internal/timing"
)

var mnistWorkload = workload{
	name: "mnist",
	desc: "reproduces the paper's §IV evaluation: LeNet/MNIST inference on the detailed GTX 1050 model correlated against the hardware oracle (Figs. 6-7), with the GPUWattch-style power breakdown (Fig. 8)",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		images := fs.Int("images", 3, "number of MNIST images to classify (the paper uses 3)")
		fig6 := fs.Bool("fig6", false, "print only the Fig. 6 overall correlation")
		fig7 := fs.Bool("fig7", false, "print only the Fig. 7 per-kernel correlation")
		fig8 := fs.Bool("fig8", false, "print only the Fig. 8 power breakdown")
		return func(rep *aerial.Report) error {
			if err := atLeast("images", *images, 1); err != nil {
				return err
			}
			res, err := core.RunMNISTCorrelation(*workers, *images)
			if err != nil {
				return err
			}
			all := !*fig6 && !*fig7 && !*fig8
			c := res.Correlation
			if all {
				rep.Printf("LeNet/MNIST inference, %d image(s), GTX 1050 model\n", res.Images)
				rep.Printf("self-check (GPU vs CPU reference classifications): ok=%v gpu=%v cpu=%v\n\n",
					res.SelfCheckOK, res.GPUClasses, res.CPUClasses)
			}
			if all || *fig6 {
				rep.Printf("-- Fig. 6: overall execution time correlation --\n")
				rep.Printf("hardware (oracle): %.0f cycles\n", c.TotalHW)
				rep.Printf("simulator:         %.0f cycles\n", c.TotalSim)
				rep.Printf("overall error:     %.1f%% (paper: within 30%%)\n\n", c.OverallError*100)
			}
			heads := []string{"kernel", "launches", "hw cycles", "sim cycles", "sim/hw"}
			var rows [][]string
			for _, k := range c.Kernels {
				rows = append(rows, []string{
					k.Name, fmt.Sprint(k.Launches), stats.Fmt(k.HWCycles), stats.Fmt(k.SimCycles),
					fmt.Sprintf("%.0f%%", k.SimCycles/k.HWCycles*100),
				})
			}
			if all || *fig7 {
				rep.Printf("-- Fig. 7: per-kernel relative execution time --\n")
				rep.Printf("%s", stats.Table(heads, rows))
				rep.Printf("Pearson correlation: %.2f (paper reports 72%%)\n\n", c.Pearson)
			}
			if all || *fig8 {
				rep.Printf("-- Fig. 8: average power breakdown --\n")
				names, watts := res.Power.Components()
				total := res.Power.Total()
				for i, n := range names {
					rep.Printf("%-10s %6.1f W  (%4.1f%%)\n", n, watts[i], watts[i]/total*100)
				}
				rep.Printf("%-10s %6.1f W\n", "Total", total)
			}
			rep.Table(aerial.CSVTable("kernel_correlation.csv", heads, rows))
			rep.EngineSeries("", res.Engine)
			return nil
		}
	},
}

var convsampleWorkload = workload{
	name: "convsample",
	desc: "reproduces the paper's §V case studies: one cuDNN conv_sample case (-dir, -algo) on the GTX 1080 Ti model with AerialVision-style plots of per-bank DRAM efficiency/utilization, global and per-shader IPC and the warp-issue breakdown (Figs. 9-25), or with -sweep a cycle table over every algorithm of every direction",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		dir := fs.String("dir", "fwd", "direction: fwd | bwddata | bwdfilter")
		algo := fs.String("algo", "winograd_nonfused", "algorithm (see -sweep for the list)")
		plots := fs.String("plot", "dram,ipc,warp", "comma-separated plots to print: dram, ipc, warp")
		sweep := fs.Bool("sweep", false, "run every algorithm of every direction and print a cycle table")
		c := fs.Int("c", 8, "input channels")
		k := fs.Int("k", 8, "output channels")
		hw := fs.Int("hw", 28, "input height/width")
		return func(rep *aerial.Report) error {
			if err := cmp.Or(atLeast("c", *c, 1), atLeast("k", *k, 1), atLeast("hw", *hw, 1)); err != nil {
				return err
			}
			want := map[string]bool{"dram": false, "ipc": false, "warp": false}
			for _, p := range strings.Split(*plots, ",") {
				p = strings.TrimSpace(p)
				if _, ok := want[p]; !ok {
					return usagef("-plot: unknown plot %q (dram, ipc, warp)", p)
				}
				want[p] = true
			}
			shape := core.DefaultConvShape()
			shape.C, shape.K, shape.H, shape.W = *c, *k, *hw, *hw
			if *sweep {
				for _, name := range []string{"dir", "algo", "plot"} {
					if isSet(fs, name) {
						return usagef("-%s selects one case; -sweep runs them all and prints no plots", name)
					}
				}
				return runConvSweep(rep, *workers, shape)
			}
			res, err := core.RunConvSample(core.GTX1080Ti, *workers, core.ConvDirection(*dir), *algo, shape)
			if err != nil {
				return err
			}
			st := res.Engine.Stats()
			rep.Printf("conv_sample %s/%s on GTX 1080 Ti model: %d cycles, %d kernels, IPC %.2f\n\n",
				*dir, *algo, res.Cycles, len(res.Kernels), st.TotalIPC(res.Cycles))
			interval := st.Interval()
			if want["dram"] {
				parts := res.Engine.Partitions()
				for pi, ch := range parts[:min(2, len(parts))] {
					plotBanks(rep.W, ch, fmt.Sprintf("DRAM efficiency, partition %d (Figs. 9/11/13/17 analog)", pi),
						fmt.Sprintf("DRAM utilization, partition %d (Figs. 10/12/14 analog)", pi), "bank %d", interval)
				}
				if len(parts) > 1 {
					rep.Printf("(… %d more partitions elided; use CSV output for all)\n", len(parts)-2)
				}
			}
			if want["ipc"] {
				aerial.Line(rep.W, "global IPC (Figs. 15/18/20/24 analog)", st.GlobalIPCSeries(), interval)
				aerial.HeatMap(rep.W, "per-shader IPC (Figs. 16/19/21/25 analog)", st.ShaderIPCSeries(),
					func(i int) string { return fmt.Sprintf("shader %d", i) }, interval)
			}
			if want["warp"] {
				names, series := st.WarpIssueBreakdown()
				aerial.StackedSummary(rep.W, "warp issue breakdown (Figs. 22/23 analog)", names, series)
			}
			rep.Table(aerial.KernelMemTable("", res.Kernels))
			rep.EngineSeries("", res.Engine)
			return nil
		}
	},
}

// plotBanks renders one DRAM channel's per-bank efficiency and
// utilization heat maps.
func plotBanks(w io.Writer, ch *dram.Channel, effTitle, utilTitle, label string, interval uint64) {
	bank := func(i int) string { return fmt.Sprintf(label, i) }
	aerial.HeatMap(w, effTitle, ch.EfficiencySeries(), bank, interval)
	aerial.HeatMap(w, utilTitle, ch.UtilizationSeries(), bank, interval)
}

// runConvSweep is the §V-A table: every algorithm of every direction.
func runConvSweep(rep *aerial.Report, workers int, shape core.ConvSampleShape) error {
	heads := []string{"direction", "algorithm", "cycles", "ipc", "kernels"}
	var rows [][]string
	for _, dir := range []core.ConvDirection{core.Forward, core.BackwardData, core.BackwardFilter} {
		for _, algo := range core.AlgorithmsFor(dir) {
			res, err := core.RunConvSample(core.GTX1080Ti, workers, dir, algo, shape)
			if err != nil {
				rows = append(rows, []string{string(dir), algo, "error: " + err.Error(), "", ""})
				continue
			}
			rows = append(rows, []string{
				string(dir), algo, fmt.Sprint(res.Cycles),
				fmt.Sprintf("%.2f", res.Engine.Stats().TotalIPC(res.Cycles)), fmt.Sprint(len(res.Kernels)),
			})
		}
	}
	rep.Printf("%s", stats.Table(heads, rows))
	rep.Table(aerial.CSVTable("conv_sweep.csv", heads, rows))
	return nil
}

// campingWorkload reproduces the paper's §V-B pathology, where a
// kernel's access pattern funnels every request onto one DRAM bank (a new
// row each time) while the other banks sit idle, and contrasts it with
// the same kernel striding at unit distance so requests interleave across
// banks: the strided_saxpy probe runs twice under the GTX 1050 model —
// once with the camping stride (RowBytes*NumBanks bytes between
// consecutive threads), once streaming. Camped traffic shows one hot row
// in the heat maps and an average segment latency tens of times the
// streaming run's; spread traffic lights every bank.
var campingWorkload = workload{
	name: "camping",
	desc: "reproduces the paper's §V-B DRAM bank camping: the strided_saxpy probe camped on one bank vs streaming across all of them, with per-bank DRAM efficiency/utilization heat maps (Figs. 9-14 analog) and the per-kernel memory counters",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		return func(rep *aerial.Report) error {
			const ctas, threads = 4, 64
			rep.Printf("bank camping (paper §V-B) vs bank-parallel streaming, GTX 1050 model\n")
			var kernels []cudart.KernelStats
			for _, run := range []struct {
				name   string
				stride int
			}{{"camped", core.CampingStrideFloats(timing.GTX1050())}, {"streaming", 1}} {
				res, err := core.RunStridedSaxpy(core.GTX1050, *workers, ctas, threads, run.stride)
				if err != nil {
					return err
				}
				st := res.Engine.Stats()
				rep.Printf("\n--- %s (stride %d floats) ---\n", run.name, run.stride)
				rep.Printf("%d cycles, avg segment latency %.1f, DRAM row hits %d/%d, ingress stalls %d\n",
					res.Kernel.Cycles, st.AvgSegmentLatency(), st.DRAMRowHits, st.DRAMAccesses, st.IngressStallCycles)
				aerial.KernelMemTable("per-kernel memory counters", []cudart.KernelStats{res.Kernel}).WriteText(rep.W)
				for pi, ch := range res.Engine.Partitions() {
					reads, writes, _, busy := ch.Totals()
					if reads+writes == 0 {
						continue
					}
					rep.Printf("partition %d: %d reads, %d writes, %d busy cycles\n", pi, reads, writes, busy)
					plotBanks(rep.W, ch, fmt.Sprintf("DRAM efficiency, partition %d (banks bottom-up)", pi),
						fmt.Sprintf("DRAM utilization, partition %d (banks bottom-up)", pi), "bank%d", st.Interval())
				}
				res.Kernel.Name = run.name
				kernels = append(kernels, res.Kernel)
				rep.EngineSeries(run.name+"_", res.Engine)
			}
			rep.Table(aerial.KernelMemTable("", kernels))
			return nil
		}
	},
}

// memboundWorkload sweeps the streaming strided_saxpy kernel across
// occupancy levels on the GTX 1050 model, one fresh engine per level so
// no level sees the previous one's warm caches, demonstrating the
// bandwidth-aware memory hierarchy: average segment latency rises with
// load instead of staying at the unloaded L2/DRAM latency (a
// fixed-latency memory model reports the same latency at every level).
var memboundWorkload = workload{
	name: "membound",
	desc: "sweeps a streaming kernel across occupancies to show load-dependent memory latency",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		return func(rep *aerial.Report) error {
			const threads, stride = 64, 1
			ctas := []int{1, 8, 40, 160}
			rep.Printf("membound workload: streaming strided_saxpy, %d threads/CTA, stride %d\n", threads, stride)
			rep.Printf("%-6s %10s %14s %14s %12s\n", "ctas", "cycles", "avg_seg_lat", "ingress_stall", "dram_rowhit")
			var launches []cudart.KernelStats
			lat := make([]float64, len(ctas))
			for i, n := range ctas {
				res, err := core.RunStridedSaxpy(core.GTX1050, *workers, n, threads, stride)
				if err != nil {
					return fmt.Errorf("membound ctas=%d: %w", n, err)
				}
				st := res.Engine.Stats()
				lat[i] = st.AvgSegmentLatency()
				rep.Printf("%-6d %10d %14.1f %14d %12d\n",
					n, res.Kernel.Cycles, lat[i], st.IngressStallCycles, res.Kernel.DRAMRowHits)
				res.Kernel.Name = fmt.Sprintf("saxpy_ctas%d", n)
				launches = append(launches, res.Kernel)
			}
			lo, hi := 0, len(ctas)-1
			rep.Printf("load-dependent latency: %.1f cycles at %d CTAs -> %.1f cycles at %d CTAs (%.2fx)\n",
				lat[lo], ctas[lo], lat[hi], ctas[hi], lat[hi]/lat[lo])
			rep.Table(aerial.KernelMemTable("per-kernel memory counters", launches))
			return nil
		}
	},
}

// debugBreakOps are the opcodes -break can break: ones the FFT
// convolution executes and the instrumentation pass itself does not rely
// on (its logging code runs on the same broken simulator).
var debugBreakOps = []ptx.Op{ptx.OpRem, ptx.OpDiv, ptx.OpBrev, ptx.OpShr, ptx.OpFma}

var debugWorkload = workload{
	name: "debug",
	desc: "reproduces the paper's §III-D functional-debug methodology (Figs. 2-3): inject a faulty instruction implementation into the simulator, then localise it by differential coverage, API-call/kernel bisection and instruction-level comparison against the golden executor",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		var names []string
		for _, op := range debugBreakOps {
			names = append(names, op.String())
		}
		opName := fs.String("break", "rem", "opcode whose implementation to break ("+strings.Join(names, ", ")+")")
		entries := fs.Int("entries", 4096, "instruction-log entries per thread")
		return func(rep *aerial.Report) error {
			i := slices.Index(names, *opName)
			if i < 0 {
				return usagef("-break: unknown opcode %q (one of %s)", *opName, strings.Join(names, ", "))
			}
			if *entries < 1 {
				return usagef("-entries must be >= 1, got %d", *entries)
			}
			if isSet(fs, "j") {
				return usagef("-j does not apply to -workload debug (every run is functional: no SM cores to step)")
			}
			op := debugBreakOps[i]
			rep.Printf("injecting a faulty %s implementation into the simulator…\n", op)
			res, err := core.RunDebugSample(op, *entries)
			if err != nil {
				return err
			}

			rep.Printf("\nstep 1 — differential coverage (failing app vs regression suite):\n")
			switch {
			case res.RegressionErr != nil:
				rep.Printf("  (skipped: the regression suite fails on the suspect simulator too: %v)\n", res.RegressionErr)
			case len(res.SuspiciousPaths) == 0:
				rep.Printf("  (no exclusive paths)\n")
			}
			for _, p := range res.SuspiciousPaths {
				rep.Printf("  suspicious implementation path: %s.%s\n", p.Op, p.T)
			}

			rep.Printf("\nstep 2 — API-call / kernel bisection:\n")
			if res.BadLaunch < 0 {
				rep.Printf("  no output divergence found\n")
				return nil
			}
			rep.Printf("  first incorrect API call: %s\n", res.BadAPI)
			rep.Printf("  first incorrect kernel:   %s (launch %d)\n", res.BadKernel, res.BadLaunch)

			rep.Printf("\nstep 3 — instruction bisection (instrumented PTX replay):\n")
			rep.Printf("  first incorrectly executing instruction: pc %d: %s\n", res.BadPC, res.BadInstr)
			rep.Printf("  thread %d: golden value %#x, simulator value %#x\n",
				res.BadThread, res.GoldenVal, res.BuggyVal)
			return nil
		}
	},
}

var checkpointWorkload = workload{
	name: "checkpoint",
	desc: "reproduces the paper's §III-F checkpoint/resume flow (Figs. 4-5): fast-forward a relu -> GEMM -> relu application functionally to a point inside the GEMM, save Data1 (registers, SIMT stacks, shared memory) and Data2 (global memory), then resume inside the kernel on the GTX 1050 performance model and check the result against an uninterrupted run",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		return func(rep *aerial.Report) error {
			res, err := core.RunCheckpointSample(*workers)
			if err != nil {
				return err
			}
			rep.Printf("checkpoint at kernel x=%d, CTA M=%d, t=%d, y=%d instructions/warp\n",
				res.Point.KernelX, res.Point.CTAM, res.Point.CTAT, res.Point.InstrY)
			rep.Printf("  kernel: %s; in-flight CTAs saved: %d; serialized size: %d bytes\n",
				res.Kernel, res.InFlight, res.BlobBytes)
			rep.Printf("resumed in performance mode: %d cycles simulated\n", res.Cycles)
			rep.Printf("final output[0:6] = %v\n", res.Output[:6])
			return nil
		}
	},
}
