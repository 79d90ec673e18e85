package timing_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/timing"
)

// memBoundSweep is BenchmarkMemoryBoundStream's occupancy sweep: CTAs of
// 64 threads, from a fraction of one SM to several machine-fulls.
var memBoundSweep = []int{4, 16, 64, 256}

// issueWork is the issue stage's work per issued warp instruction on an
// engine that has run: scoreboard evaluations and scheduler steps.
func issueWork(e *timing.Engine) (evals, steps float64) {
	instrs := float64(e.Stats().Instructions)
	return float64(timing.ReadinessEvals(e)) / instrs, float64(timing.SchedulerSteps(e)) / instrs
}

// stridedSaxpy launches the streaming strided_saxpy kernel once on a fresh
// engine.
func stridedSaxpy(tb testing.TB, ctas, threads int) *timing.Engine {
	tb.Helper()
	res, err := core.RunStridedSaxpy(core.GTX1050, 1, ctas, threads, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Engine
}

// TestIssueWorkPerInstruction pins the event-driven issue stage's cost in
// units that repeat exactly. A warp is evaluated once after it issues and
// once more each time a wakeup, a barrier release or its placement
// re-arms it, so evaluations per issued instruction is a small constant
// whatever the occupancy; the all-candidates scan this replaced spent
// 47.4 on the membound_stream launch shape, growing with resident warps.
// A scheduler is stepped only when something is due, so steps per issued
// instruction is a small constant too; stepping every scheduler of every
// core on every stepped cycle cost ~6 on that shape and ~8.4 on the
// paper's LeNet.
func TestIssueWorkPerInstruction(t *testing.T) {
	const evalBound, stepBound = 3, 2
	check := func(shape string, e *timing.Engine) (evals float64) {
		t.Helper()
		evals, steps := issueWork(e)
		e.Close()
		t.Logf("%s: %.2f readiness evaluations, %.2f scheduler steps per issued instruction", shape, evals, steps)
		if evals > evalBound {
			t.Errorf("%s: %.2f readiness evaluations per issued instruction, want <= %d", shape, evals, evalBound)
		}
		if steps > stepBound {
			t.Errorf("%s: %.2f scheduler steps per issued instruction, want <= %d", shape, steps, stepBound)
		}
		return evals
	}
	check("membound_stream shape", stridedSaxpy(t, 2048, 128))
	res, err := core.RunMNISTCorrelation(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("lenet_mnist, one image", res.Engine)

	lo, hi := float64(evalBound), 0.0
	for _, ctas := range memBoundSweep {
		evals := check(fmt.Sprintf("%d CTAs", ctas), stridedSaxpy(t, ctas, 64))
		lo, hi = min(lo, evals), max(hi, evals)
	}
	if hi > 1.25*lo {
		t.Errorf("readiness evaluations per instruction range %.2f-%.2f over the occupancy sweep, want flat", lo, hi)
	}
}

// BenchmarkMemoryBoundStream drives the streaming strided_saxpy workload
// at several occupancies and reports both the modelled outcome
// (avg_seg_latency_cycles — the load-dependent number the bandwidth-aware
// hierarchy produces) and the host cost of the timing core. Host cost per
// stepped cycle must stay flat as occupancy grows: the partition's
// absolute-time resource reservations are O(1) per segment and the issue
// stage does work per issue and per wakeup, not per resident warp
// (readiness_evals_per_instr and sched_steps_per_instr are that work,
// counted). ns_per_sim_cycle divides by fast-forwarded cycles too, so it
// falls as stalls lengthen; ns_per_stepped_cycle does not.
func BenchmarkMemoryBoundStream(b *testing.B) {
	for _, ctas := range memBoundSweep {
		b.Run(fmt.Sprintf("ctas=%d", ctas), func(b *testing.B) {
			var cycles, stepped uint64
			var avgLat, evals, steps float64
			for i := 0; i < b.N; i++ {
				e := stridedSaxpy(b, ctas, 64)
				evals, steps = issueWork(e)
				cycles = e.Cycle()
				stepped = cycles - e.Stats().FastForwardedCycles
				avgLat = e.Stats().AvgSegmentLatency()
				e.Close()
			}
			nsPerLaunch := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(cycles), "sim_cycles")
			b.ReportMetric(avgLat, "avg_seg_latency_cycles")
			b.ReportMetric(evals, "readiness_evals_per_instr")
			b.ReportMetric(steps, "sched_steps_per_instr")
			b.ReportMetric(nsPerLaunch/float64(cycles), "ns_per_sim_cycle")
			b.ReportMetric(nsPerLaunch/float64(stepped), "ns_per_stepped_cycle")
		})
	}
}
