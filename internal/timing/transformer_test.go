package timing_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
	"repro/internal/torch"
)

// The transformer encoder is the stream-concurrency stress workload: per
// layer it issues ~20 small heterogeneous kernels (GEMM NN/NT, softmax,
// layernorm, GELU, permutes, residual adds), and per-sequence forward
// passes ride separate CUDA streams through the multi-grid dispatcher.

// testTransformerConfig is deliberately small so the detailed model runs
// fast, but still multi-layer/multi-head so every kernel family appears.
var testTransformerConfig = torch.TransformerConfig{
	Layers: 2, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8,
}

// transformerBatch builds `seqs` deterministic token sequences.
func transformerBatch(seqs, seqLen, vocab int) [][]int32 {
	batch := make([][]int32, seqs)
	for i := range batch {
		ids := make([]int32, seqLen)
		for j := range ids {
			ids[j] = int32((i*7 + j*3) % vocab)
		}
		batch[i] = ids
	}
	return batch
}

type transformerSnapshot struct {
	Cycles  uint64
	Log     []cudart.KernelStats
	Outputs [][]float32
	Stats   timing.Stats
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

// runTransformer executes a `seqs`-sequence encoder forward batch on the
// detailed engine — one stream per sequence when concurrent — and
// snapshots cycles, the per-kernel stats log and the outputs.
func runTransformer(t testing.TB, workers, seqs int, concurrent bool) transformerSnapshot {
	t.Helper()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	rng := rand.New(rand.NewSource(99))
	enc, err := torch.NewTransformerEncoder(dev, rng, testTransformerConfig)
	if err != nil {
		t.Fatal(err)
	}
	batch := transformerBatch(seqs, 6, testTransformerConfig.Vocab)
	start := eng.Cycle()
	outs, err := enc.ForwardBatch(batch, concurrent)
	if err != nil {
		t.Fatal(err)
	}
	return transformerSnapshot{
		Cycles:  eng.Cycle() - start,
		Log:     dev.Ctx.KernelStatsLog(),
		Outputs: outs,
		Stats:   *eng.Stats(),

		DRAMServed: dramServed(eng),
	}
}

// TestTransformerSimMatchesCPU runs the stream-overlapped encoder through
// the detailed timing model and checks every sequence's output against
// the ForwardCPU oracle — the workload-level differential contract.
func TestTransformerSimMatchesCPU(t *testing.T) {
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	rng := rand.New(rand.NewSource(99))
	enc, err := torch.NewTransformerEncoder(dev, rng, testTransformerConfig)
	if err != nil {
		t.Fatal(err)
	}
	batch := transformerBatch(3, 6, testTransformerConfig.Vocab)
	outs, err := enc.ForwardBatch(batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cycle() == 0 {
		t.Fatal("forward pass did not go through the timing engine")
	}
	for i, ids := range batch {
		want, _ := enc.ForwardCPU(ids)
		if len(outs[i]) != len(want) {
			t.Fatalf("seq %d: output size %d, oracle %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			d := outs[i][j] - want[j]
			if d < -5e-3 || d > 5e-3 {
				t.Fatalf("seq %d: sim/CPU mismatch at %d: %v vs %v", i, j, outs[i][j], want[j])
			}
		}
	}
}

// TestTransformerStreamVsSerialDifferential: running the per-sequence
// forwards concurrently on streams must preserve the serialized run's
// final outputs and per-kernel instruction counts exactly.
func TestTransformerStreamVsSerialDifferential(t *testing.T) {
	conc := runTransformer(t, 1, 3, true)
	serial := runTransformer(t, 1, 3, false)

	if len(conc.Log) != len(serial.Log) {
		t.Fatalf("launch counts diverged: %d vs %d", len(conc.Log), len(serial.Log))
	}
	for i := range conc.Log {
		if conc.Log[i].Name != serial.Log[i].Name {
			t.Errorf("launch %d kernel diverged: %s vs %s", i, conc.Log[i].Name, serial.Log[i].Name)
		}
		if conc.Log[i].WarpInstrs != serial.Log[i].WarpInstrs {
			t.Errorf("kernel %d (%s) instruction count diverged: concurrent %d vs serial %d",
				i, conc.Log[i].Name, conc.Log[i].WarpInstrs, serial.Log[i].WarpInstrs)
		}
		if conc.Log[i].Cycles == 0 {
			t.Errorf("kernel %d (%s) has no cycles — did not go through the detailed model",
				i, conc.Log[i].Name)
		}
	}
	if !reflect.DeepEqual(conc.Outputs, serial.Outputs) {
		t.Error("encoder outputs diverged between concurrent and serialized runs")
	}
}

// TestTransformerStreamWorkerDeterminism extends the PR 1/PR 2 contract
// to the transformer workload: the stream-overlapped forward pass is
// byte-identical for any -j worker count.
func TestTransformerStreamWorkerDeterminism(t *testing.T) {
	base := runTransformer(t, 1, 3, true)
	for _, workers := range []int{2, 4} {
		got := runTransformer(t, workers, 3, true)
		if base.Cycles != got.Cycles {
			t.Errorf("-j1 vs -j%d total cycles diverged: %d vs %d", workers, base.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(base.Log, got.Log) {
			t.Errorf("-j1 vs -j%d per-kernel stats diverged", workers)
		}
		if !reflect.DeepEqual(base.Outputs, got.Outputs) {
			t.Errorf("-j1 vs -j%d outputs diverged", workers)
		}
	}
}

// TestTransformerStreamOverlap: the encoder's many small kernels cannot
// fill the GPU one at a time; per-sequence streams must finish the batch
// in fewer total cycles than the serialized run.
func TestTransformerStreamOverlap(t *testing.T) {
	conc := runTransformer(t, 1, 4, true)
	serial := runTransformer(t, 1, 4, false)
	if conc.Cycles == 0 || serial.Cycles == 0 {
		t.Fatal("workload did not exercise the timing engine")
	}
	if conc.Cycles >= serial.Cycles*19/20 {
		t.Fatalf("streams did not overlap: concurrent %d cycles vs serialized %d",
			conc.Cycles, serial.Cycles)
	}
	t.Logf("concurrent %d cycles vs serialized %d (%.0f%% saved)",
		conc.Cycles, serial.Cycles, 100*(1-float64(conc.Cycles)/float64(serial.Cycles)))
}

// BenchmarkTransformerForward sweeps the stream count of the encoder
// forward batch and reports cycles plus the overlap speedup.
func BenchmarkTransformerForward(b *testing.B) {
	for _, seqs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("streams=%d", seqs), func(b *testing.B) {
			var conc, serial uint64
			for i := 0; i < b.N; i++ {
				conc = runTransformer(b, 0, seqs, true).Cycles
				serial = runTransformer(b, 0, seqs, false).Cycles
			}
			b.ReportMetric(float64(conc), "cycles_concurrent")
			b.ReportMetric(float64(serial), "cycles_serial")
			b.ReportMetric(float64(serial)/float64(conc), "overlap_speedup")
		})
	}
}
