package timing

import (
	"fmt"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// benchDrainDepth builds the queue-depth workload — a transformer-batch-
// shaped mix of small same-stream kernels with interleaved copies, so
// the active set stays tiny while the queue is deep — and times one
// drain of it per iteration.
func benchDrainDepth(b *testing.B, depth int) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		ctx := cudart.NewContext(exec.BugSet{})
		eng, err := New(GTX1050())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.RegisterModule(eqPTX); err != nil {
			b.Fatal(err)
		}
		_, kern, err := ctx.LookupKernel("sqadd")
		if err != nil {
			b.Fatal(err)
		}
		px, _ := ctx.Malloc(4 * 64)
		py, _ := ctx.Malloc(4 * 64)
		ctx.MemcpyF32HtoD(px, make([]float32, 64))
		ctx.MemcpyF32HtoD(py, make([]float32, 64))
		scratch := make([]float32, 64)
		for op := 0; op < depth; op++ {
			if op%8 == 7 {
				eng.SubmitCopy(0, 4*64, func() { ctx.MemcpyF32HtoD(py, scratch) })
				continue
			}
			p := cudart.NewParams().Ptr(px).Ptr(py).U32(64)
			g, err := ctx.M.NewGrid(kern, exec.Dim3{X: 1}, exec.Dim3{X: 64}, p.Bytes(), 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Submit(g, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Drain(); err != nil {
			b.Fatal(err)
		}
		cycles = eng.Cycle()
		eng.Close()
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
	b.ReportMetric(float64(depth), "queue_depth")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns_per_sim_cycle")
}

var drainDepths = []int{1, 16, 256, 1024}

// BenchmarkDrainQueueDepth sweeps the submission-queue depth and
// reports the host cost per simulated cycle of the active-set drain.
// Before the active-set scheduler the drain loop rescanned every queued
// ticket each cycle, so ns_per_sim_cycle grew with depth; with the
// first-unfinished cursor + active-copy list it stays roughly flat from
// 16 to 1024 queued tickets; CHANGES.md records that loop against the
// full-scan one at 2.5x the cost at depth 1024. Simulated cycle counts are
// identical across both loops at every depth — that contract is pinned
// by TestDrainEquivalence and the golden stats.
func BenchmarkDrainQueueDepth(b *testing.B) {
	for _, depth := range drainDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchDrainDepth(b, depth)
		})
	}
}
