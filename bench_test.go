// Benchmark harness: one benchmark per figure of the paper's evaluation.
// Each benchmark regenerates the corresponding figure's data and reports
// the headline quantities as custom metrics (cycles, IPC, correlation,
// watts), so `go test -bench=. -benchmem` reproduces the whole evaluation.
package gpgpusim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ptx"
	"repro/internal/timing"
)

// benchConvCase runs one conv_sample case per iteration and reports the
// simulated cycles and whole-run IPC.
func benchConvCase(b *testing.B, dir core.ConvDirection, algo string) {
	b.Helper()
	var res *core.ConvSampleResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunConvSample(core.GTX1080Ti, 1, dir, algo, core.DefaultConvShape())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "sim_cycles")
	b.ReportMetric(res.Engine.Stats().TotalIPC(res.Cycles), "ipc")
	var reads, busy uint64
	for _, ch := range res.Engine.Partitions() {
		r, w, _, bu := ch.Totals()
		reads += r + w
		busy += bu
	}
	b.ReportMetric(float64(reads), "dram_accesses")
}

// BenchmarkFig06MNISTCorrelation regenerates Fig. 6: overall MNIST
// execution time, simulator vs the hardware oracle.
func BenchmarkFig06MNISTCorrelation(b *testing.B) {
	var res *core.MNISTCorrelationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunMNISTCorrelation(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SimCycles), "sim_cycles")
	b.ReportMetric(res.HWCycles, "hw_cycles")
	b.ReportMetric(res.Correlation.OverallError*100, "overall_err_pct")
}

// BenchmarkFig07PerKernelCorrelation regenerates Fig. 7: per-kernel
// correlation across the MNIST kernel mix.
func BenchmarkFig07PerKernelCorrelation(b *testing.B) {
	var res *core.MNISTCorrelationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunMNISTCorrelation(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Correlation.Pearson, "pearson")
	b.ReportMetric(float64(len(res.Correlation.Kernels)), "kernels")
}

// BenchmarkFig08PowerBreakdown regenerates Fig. 8: the six-component
// average power split for MNIST.
func BenchmarkFig08PowerBreakdown(b *testing.B) {
	var res *core.MNISTCorrelationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunMNISTCorrelation(1, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	pb := res.Power
	b.ReportMetric(pb.Total(), "total_w")
	b.ReportMetric(pb.Core/pb.Total()*100, "core_pct")
	b.ReportMetric(pb.Idle/pb.Total()*100, "idle_pct")
}

// Figs. 9-10: forward FFT DRAM efficiency/utilization (bank camping).
func BenchmarkFig09FwdFFTDRAM(b *testing.B) { benchConvCase(b, core.Forward, "fft") }

// Figs. 11-12: forward GEMM DRAM efficiency/utilization.
func BenchmarkFig11FwdGEMMDRAM(b *testing.B) { benchConvCase(b, core.Forward, "gemm") }

// Figs. 13-14: backward-filter Algorithm 0 DRAM efficiency/utilization.
func BenchmarkFig13BwdFilterAlgo0DRAM(b *testing.B) {
	benchConvCase(b, core.BackwardFilter, "algo0")
}

// Figs. 15-17: forward Winograd-Nonfused global/shader IPC + DRAM.
func BenchmarkFig15FwdWinoNonfusedIPC(b *testing.B) {
	benchConvCase(b, core.Forward, "winograd_nonfused")
}

// Figs. 18-19: backward-data Winograd-Nonfused global/shader IPC.
func BenchmarkFig18BwdDataWinoNonfusedIPC(b *testing.B) {
	benchConvCase(b, core.BackwardData, "winograd_nonfused")
}

// Figs. 20-21: backward-filter Winograd-Nonfused IPC (load imbalance).
func BenchmarkFig20BwdFilterWinoNonfusedIPC(b *testing.B) {
	benchConvCase(b, core.BackwardFilter, "winograd_nonfused")
}

// Fig. 22: forward Winograd-Nonfused warp-issue breakdown.
func BenchmarkFig22FwdWinoNonfusedWarp(b *testing.B) {
	benchConvCase(b, core.Forward, "winograd_nonfused")
}

// Figs. 23-25: forward Implicit GEMM warp breakdown and IPC.
func BenchmarkFig23FwdImplicitGEMMWarp(b *testing.B) {
	benchConvCase(b, core.Forward, "implicit_gemm")
}

// BenchmarkParallelWorkers sweeps the timing engine's worker count over a
// conv forward pass. The simulated result is identical for every worker
// count (the engine's determinism contract); only the wall-clock ns/op
// changes, so BENCH_*.json tracks the parallel speedup from the
// scheduler/issue/memory-stage split onward.
func BenchmarkParallelWorkers(b *testing.B) {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	seen := make(map[int]bool)
	var baseline uint64
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("j%d", w), func(b *testing.B) {
			var res *core.ConvSampleResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.RunConvSample(core.GTX1080Ti, w, core.Forward, "implicit_gemm", core.DefaultConvShape())
				if err != nil {
					b.Fatal(err)
				}
			}
			if baseline == 0 {
				baseline = res.Cycles
			} else if res.Cycles != baseline {
				b.Fatalf("determinism violated: j%d simulated %d cycles, j1 simulated %d", w, res.Cycles, baseline)
			}
			b.ReportMetric(float64(res.Cycles), "sim_cycles")
			b.ReportMetric(float64(w), "workers")
		})
	}
}

// BenchmarkDebugWorkflow times the §III-D three-step debug flow locating
// an injected faulty rem implementation (Figs. 2-3).
func BenchmarkDebugWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.RunDebugSample(ptx.OpRem, 0)
		if err != nil {
			b.Fatal(err)
		}
		if rep.BadLaunch < 0 || rep.BadPC < 0 {
			b.Fatal("debug flow failed to localise the bug")
		}
	}
}

// BenchmarkCheckpointResume times the §III-F capture + resume flow.
func BenchmarkCheckpointResume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunCheckpointSample(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalVsPerformanceMode measures the paper's §III-F claim
// that performance mode is several times slower than functional mode, on
// the checkpoint flow's kernel sequence.
func BenchmarkFunctionalVsPerformanceMode(b *testing.B) {
	b.Run("functional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunCheckpointApp(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("performance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := timing.New(timing.GTX1050())
			if err != nil {
				b.Fatal(err)
			}
			_, err = core.RunCheckpointApp(eng)
			eng.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
