package core

import (
	"fmt"
	"math"
	"testing"
)

// Training-sample driver tests: loss trajectory against the CPU mirror
// (RunTrainSample enforces the per-step tolerance itself), kernel-mix
// coverage of the train module, and replay-mode equivalence. The
// BenchmarkTrainStep figures are recorded in BENCH_9.json.

func TestRunTrainSample(t *testing.T) {
	res, err := RunTrainSample(1, 3, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 3 || len(res.CPULosses) != 3 {
		t.Fatalf("want 3 per-step losses, got %d device / %d cpu", len(res.Losses), len(res.CPULosses))
	}
	for i, l := range res.Losses {
		if math.IsNaN(float64(l)) || math.IsInf(float64(l), 0) || l <= 0 {
			t.Fatalf("step %d loss %g not a finite positive value", i, l)
		}
	}
	if res.MaxLossDiff > TrainLossTolerance {
		t.Fatalf("device/CPU loss divergence %g exceeds %g", res.MaxLossDiff, TrainLossTolerance)
	}
	if res.Launches() == 0 || res.TotalCycles == 0 || res.FirstIterCycles == 0 {
		t.Fatalf("implausible run: %d launches, %d cycles, %d first-step cycles",
			res.Launches(), res.TotalCycles, res.FirstIterCycles)
	}
	if res.TokensPerMcycle() <= 0 {
		t.Fatalf("tokens/Mcycle = %g", res.TokensPerMcycle())
	}
	// every train-module kernel must appear in the mix: forward reuse is
	// not enough, the backward pass itself has to run on the device
	seen := map[string]bool{}
	for _, k := range res.PerKernel {
		seen[k.Name] = true
	}
	for _, want := range []string{
		"sgemm_tn_batched", "layernorm_backward", "gelu_backward",
		"softmax_backward", "softmax_xent_backward", "embedding_backward",
		"accumulate_add", "sgd_update",
	} {
		if !seen[want] {
			t.Errorf("kernel %q missing from the training mix %v", want, keys(seen))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRunTrainReplay pins the hybrid-replay contract for training: the
// first step simulates in detail (populating the cache), later steps
// retire repeated launch signatures from it, and — because replay
// re-executes functionally when the memo read-set fails on updated
// weights — the loss trajectory matches the detailed run to float-
// atomics rounding. (The backward pass accumulates dgamma/dbeta and
// embedding gradients through atom.global.add.f32; a replayed launch
// interprets those adds in functional order, the detailed model drains
// them in modelled order, and the sub-ulp rounding differences compound
// through the weight updates.)
func TestRunTrainReplay(t *testing.T) {
	const steps = 3
	detailed, err := RunTrainSample(1, steps, 8, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := RunTrainSample(1, steps, 8, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if detailed.Stats.ReplayHits != 0 || detailed.Stats.ReplayMisses != 0 || detailed.Stats.ReplayCoverage() != 0 {
		t.Fatalf("detailed run has replay activity: hits %d misses %d coverage %g",
			detailed.Stats.ReplayHits, detailed.Stats.ReplayMisses, detailed.Stats.ReplayCoverage())
	}
	if hybrid.Launches() != detailed.Launches() {
		t.Fatalf("launch count differs: hybrid %d vs detailed %d", hybrid.Launches(), detailed.Launches())
	}
	if hybrid.Launches()%steps != 0 {
		t.Fatalf("launches %d not divisible by %d steps", hybrid.Launches(), steps)
	}
	perStep := hybrid.Launches() / steps
	// per-step activations are freed between steps, so the allocator
	// re-issues identical addresses and every steady-state launch
	// signature repeats: steps 2..n replay entirely from the cache
	if want := uint64(perStep); hybrid.Stats.ReplayMisses != want {
		t.Fatalf("replay misses %d, want first-step launches %d", hybrid.Stats.ReplayMisses, want)
	}
	if want := uint64(perStep * (steps - 1)); hybrid.Stats.ReplayHits != want {
		t.Fatalf("replay hits %d, want %d (steps 2..%d fully replayed)", hybrid.Stats.ReplayHits, want, steps)
	}
	if min := float64(steps-1) / float64(steps); hybrid.Stats.ReplayCoverage() < min {
		t.Fatalf("coverage %g below %g", hybrid.Stats.ReplayCoverage(), min)
	}
	// first step is always detailed, so its cycle count matches exactly
	if hybrid.FirstIterCycles != detailed.FirstIterCycles {
		t.Fatalf("first-step cycles differ: hybrid %d vs detailed %d",
			hybrid.FirstIterCycles, detailed.FirstIterCycles)
	}
	// replay memoizes timing, not semantics: losses track the detailed
	// run to atomic-accumulation rounding
	for i := range detailed.Losses {
		d := math.Abs(float64(hybrid.Losses[i] - detailed.Losses[i]))
		if d > 1e-5 {
			t.Fatalf("step %d loss drifted under replay: %g vs %g (diff %g)",
				i, hybrid.Losses[i], detailed.Losses[i], d)
		}
	}
}

// BenchmarkTrainStep measures modelled training throughput on the GTX
// 1050 config, detailed vs hybrid replay. BENCH_9.json records the
// tokens_per_mcycle and coverage metrics from this benchmark.
func BenchmarkTrainStep(b *testing.B) {
	for _, mode := range []struct {
		name   string
		replay bool
	}{{"detailed", false}, {"hybrid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var last *TrainResult
			for i := 0; i < b.N; i++ {
				res, err := RunTrainSample(1, 5, 8, 0, mode.replay)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.TokensPerMcycle(), "tokens_per_mcycle")
			b.ReportMetric(last.Stats.ReplayCoverage(), "coverage")
			b.ReportMetric(float64(last.Losses[len(last.Losses)-1]), "final_loss")
			b.Log(fmt.Sprintf("losses=%v replay hits=%d misses=%d memo=%d",
				last.Losses, last.Stats.ReplayHits, last.Stats.ReplayMisses, last.Stats.ReplayMemoApplied))
		})
	}
}
