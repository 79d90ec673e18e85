package timing_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// The transformer training step is the atomics-heavy stress workload:
// per step it chains the forward pass, the tied-embedding LM head, the
// fused softmax+cross-entropy, the full backward sweep (layernorm /
// GELU / attention backward, scatter-add embedding gradients) and the
// SGD update, with dgamma/dbeta and embedding gradients accumulated
// through global atomics that drain deterministically on the
// coordinator.

type trainSnapshot struct {
	Cycles  uint64
	Log     []cudart.KernelStats
	Losses  []float32
	CPU     []float32
	Weights [][]float32
	Stats   timing.Stats
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

// runTrain executes `steps` training steps of a 6-token sequence on the
// small test encoder — one session iteration per step over a primed
// arena, as the production drivers run them — and snapshots cycles, the
// kernel log, the replay counters, the loss trajectories and the final
// weights. With replay enabled, steps 2..n retire from the cache.
func runTrain(t testing.TB, workers, steps int, replay bool) trainSnapshot {
	t.Helper()
	tcfg := timing.GTX1050()
	tcfg.ReplayEnabled = replay
	s, err := session.New(tcfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), testTransformerConfig)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := torch.NewTransformerTrainer(s.Dev, enc, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cpu := torch.NewCPUTrainState(enc)
	if err := s.PrimeArena(); err != nil {
		t.Fatal(err)
	}
	s.Pin()

	snap := trainSnapshot{}
	run, err := s.Iterate(steps, func(step int) error {
		ids := make([]int32, 6)
		for j := range ids {
			ids[j] = int32((step*17 + j*3 + 1) % testTransformerConfig.Vocab)
		}
		loss, err := tr.TrainStep(ids)
		if err != nil {
			return fmt.Errorf("train step %d: %w", step, err)
		}
		snap.Losses = append(snap.Losses, loss)
		snap.CPU = append(snap.CPU, cpu.TrainStep(ids, 0.05))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap.Cycles, snap.Log, snap.Stats, snap.DRAMServed = run.TotalCycles, s.Dev.Ctx.KernelStatsLog(), run.Stats, dramServed(s.Eng)
	for _, p := range enc.Params() {
		snap.Weights = append(snap.Weights, p.W.ToHost())
	}
	return snap
}

// TestTrainSimMatchesCPU pushes three full training steps through the
// detailed timing model and checks the loss trajectory against the
// CPUTrainState host mirror — the training analogue of the
// workload-level forward differential contract.
func TestTrainSimMatchesCPU(t *testing.T) {
	snap := runTrain(t, 1, 3, false)
	if snap.Cycles == 0 {
		t.Fatal("training did not go through the timing engine")
	}
	for i := range snap.Losses {
		d := math.Abs(float64(snap.Losses[i] - snap.CPU[i]))
		if d > 2e-2 {
			t.Fatalf("step %d: sim loss %g vs cpu %g (diff %g)", i, snap.Losses[i], snap.CPU[i], d)
		}
	}
}

// TestTrainWorkerDeterminism extends the -j byte-identity contract to
// the training workload with replay enabled: cycles, the per-kernel
// stats log, the replay counters, the loss trajectory and the final
// weights must all be identical for any worker count. The backward
// pass's global atomics make this the sharpest determinism test in the
// suite — any worker-order leak shows up in the weight bytes.
func TestTrainWorkerDeterminism(t *testing.T) {
	base := runTrain(t, 1, 3, true)
	if base.Stats.ReplayHits == 0 {
		t.Fatal("replay never engaged — the steady-state steps did not hit the cache")
	}
	for _, workers := range []int{2, 4} {
		got := runTrain(t, workers, 3, true)
		if base.Cycles != got.Cycles {
			t.Errorf("-j1 vs -j%d total cycles diverged: %d vs %d", workers, base.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(base.Log, got.Log) {
			t.Errorf("-j1 vs -j%d per-kernel stats diverged", workers)
		}
		if !reflect.DeepEqual(base.Losses, got.Losses) {
			t.Errorf("-j1 vs -j%d losses diverged: %v vs %v", workers, base.Losses, got.Losses)
		}
		if !reflect.DeepEqual(base.Weights, got.Weights) {
			t.Errorf("-j1 vs -j%d final weights diverged", workers)
		}
		for _, c := range []struct {
			name      string
			base, got uint64
		}{
			{"replay hits", base.Stats.ReplayHits, got.Stats.ReplayHits},
			{"replay misses", base.Stats.ReplayMisses, got.Stats.ReplayMisses},
			{"replay resamples", base.Stats.ReplayResamples, got.Stats.ReplayResamples},
			{"replayed cycles", base.Stats.ReplayedCycles, got.Stats.ReplayedCycles},
			{"detailed kernel cycles", base.Stats.DetailedKernelCycles, got.Stats.DetailedKernelCycles},
			{"replay drift cycles", base.Stats.ReplayDriftCycles, got.Stats.ReplayDriftCycles},
			{"replay memo applied", base.Stats.ReplayMemoApplied, got.Stats.ReplayMemoApplied},
		} {
			if c.base != c.got {
				t.Errorf("-j1 vs -j%d %s diverged: %d vs %d", workers, c.name, c.base, c.got)
			}
		}
	}
}

// goldenTrain pins the two-step training workload (6-token sequences,
// -j1, detailed mode), including the per-kernel instruction counts of
// every backward-pass kernel family.
func goldenTrain(t *testing.T) goldenEntry {
	t.Helper()
	snap := runTrain(t, 1, 2, false)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return makeGoldenEntry(snap.Cycles, snap.Log, &snap.Stats, true)
}
