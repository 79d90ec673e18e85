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

// issueWork launches the streaming strided_saxpy kernel once on a fresh
// engine and returns it with the issue stage's work per issued warp
// instruction (scoreboard evaluations / instructions).
func issueWork(tb testing.TB, ctas, threads int) (*timing.Engine, float64) {
	tb.Helper()
	res, err := core.RunStridedSaxpy(core.GTX1050, 1, ctas, threads, 1)
	if err != nil {
		tb.Fatal(err)
	}
	e := res.Engine
	return e, float64(timing.ReadinessEvals(e)) / float64(e.Stats().Instructions)
}

// TestIssueWorkPerInstruction pins the event-driven issue stage's cost in
// a unit that repeats exactly: a warp is evaluated once after it issues
// and once more each time a wakeup, a barrier release or its placement
// re-arms it, so evaluations per issued instruction is a small constant
// whatever the occupancy. The all-candidates scan this replaced spent
// 47.4 on the membound_stream launch shape, growing with resident warps.
func TestIssueWorkPerInstruction(t *testing.T) {
	const bound = 3
	e, perInstr := issueWork(t, 2048, 128)
	e.Close()
	if perInstr > bound {
		t.Errorf("membound_stream shape: %.2f readiness evaluations per issued instruction, want <= %d", perInstr, bound)
	}
	lo, hi := float64(bound), 0.0
	for _, ctas := range memBoundSweep {
		e, perInstr := issueWork(t, ctas, 64)
		e.Close()
		lo, hi = min(lo, perInstr), max(hi, perInstr)
	}
	if hi > bound || hi > 1.25*lo {
		t.Errorf("readiness evaluations per instruction range %.2f-%.2f over the occupancy sweep, want flat and <= %d", lo, hi, bound)
	}
}

// BenchmarkMemoryBoundStream drives the streaming strided_saxpy workload
// at several occupancies and reports both the modelled outcome
// (avg_seg_latency_cycles — the load-dependent number the bandwidth-aware
// hierarchy produces) and the host cost of the timing core. Host cost per
// stepped cycle must stay flat as occupancy grows: the partition's
// absolute-time resource reservations are O(1) per segment and the issue
// stage does work per issue and per wakeup, not per resident warp
// (readiness_evals_per_instr is that work, counted). ns_per_sim_cycle
// divides by fast-forwarded cycles too, so it falls as stalls lengthen;
// ns_per_stepped_cycle does not.
func BenchmarkMemoryBoundStream(b *testing.B) {
	for _, ctas := range memBoundSweep {
		b.Run(fmt.Sprintf("ctas=%d", ctas), func(b *testing.B) {
			var cycles, stepped uint64
			var avgLat, perInstr float64
			for i := 0; i < b.N; i++ {
				var e *timing.Engine
				e, perInstr = issueWork(b, ctas, 64)
				cycles = e.Cycle()
				stepped = cycles - e.Stats().FastForwardedCycles
				avgLat = e.Stats().AvgSegmentLatency()
				e.Close()
			}
			nsPerLaunch := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(cycles), "sim_cycles")
			b.ReportMetric(avgLat, "avg_seg_latency_cycles")
			b.ReportMetric(perInstr, "readiness_evals_per_instr")
			b.ReportMetric(nsPerLaunch/float64(cycles), "ns_per_sim_cycle")
			b.ReportMetric(nsPerLaunch/float64(stepped), "ns_per_stepped_cycle")
		})
	}
}
