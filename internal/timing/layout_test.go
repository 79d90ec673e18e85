package timing_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/mnist"
	"repro/internal/timing"
	"repro/internal/torch"
)

// allocUnit is cudaMalloc's alignment, the unit of a pad allocation.
const allocUnit = 256

// addressPeriod is the smallest shift of every device address that no
// part of the address map can see, derived from cfg: the L1 and L2 set
// index (sets × line bytes), partOf's L2-line interleave over the
// partitions, and the DRAM channel's bank and row bits (a row holds
// RowBytes of each bank's 256-byte chunks in turn, so NumBanks × RowBytes
// covers both).
func addressPeriod(cfg timing.Config) uint64 {
	p := uint64(allocUnit)
	for _, q := range []int{
		cfg.L1.SizeBytes / cfg.L1.Assoc,
		cfg.L2.SizeBytes / cfg.L2.Assoc,
		cfg.L2.LineBytes * cfg.NumPartitions,
		cfg.DRAM.NumBanks * cfg.DRAM.RowBytes,
	} {
		p = lcm(p, uint64(q))
	}
	return p
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b uint64) uint64 { return a / gcd(a, b) * b }

// runLeNetPadded runs the §IV LeNet forward pass on one image on a fresh
// detailed engine, after a pad allocation of pad bytes.
func runLeNetPadded(t *testing.T, pad uint64) runSnapshot {
	t.Helper()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	if pad > 0 {
		if _, err := dev.Ctx.Malloc(pad); err != nil {
			t.Fatal(err)
		}
	}
	model, err := mnist.NewLeNet(dev, 7, mnist.DefaultAlgos())
	if err != nil {
		t.Fatal(err)
	}
	images, _ := mnist.NewDataset(1).Batch(1)
	probs, err := model.Forward(images, 1)
	if err != nil {
		t.Fatal(err)
	}
	return runSnapshot{Cycles: eng.Cycle(), Log: dev.Ctx.KernelStatsLog(), Stats: *eng.Stats(), Outputs: probs}
}

// TestLayoutShift is a metamorphic test of the address map. A pad
// allocation made before the workload allocates shifts every later
// device address by the pad (Alloc is first fit over 256-byte spans). A
// shift by addressPeriod moves no set, partition, bank or row boundary,
// so the run must be byte-identical: Stats, per-launch log and outputs.
// A shift by one allocation unit moves them, so only what does not
// depend on timing is compared: outputs and per-launch instruction
// counts.
func TestLayoutShift(t *testing.T) {
	period := addressPeriod(timing.GTX1050())
	if period%allocUnit != 0 || period == allocUnit {
		t.Fatalf("address period %d is not a multiple of the %d-byte allocation unit above it", period, allocUnit)
	}
	workloads := []struct {
		name string
		run  func(t *testing.T, pad uint64) runSnapshot
	}{
		{"lenet_1_image", runLeNetPadded},
		{"gemm_64x48x56", func(t *testing.T, pad uint64) runSnapshot { return runPadded(t, 1, pad, gemmLoad) }},
		{"lenet_conv1_igemm", func(t *testing.T, pad uint64) runSnapshot { return runPadded(t, 1, pad, lenetConvLoad) }},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := w.run(t, 0)
			shifted := w.run(t, period)
			if shifted.Cycles != base.Cycles {
				t.Errorf("shift by the period %d: cycles %d, unshifted %d", period, shifted.Cycles, base.Cycles)
			}
			if !reflect.DeepEqual(shifted.Stats, base.Stats) {
				t.Errorf("shift by the period %d: engine Stats differ", period)
			}
			if !reflect.DeepEqual(shifted.Log, base.Log) {
				t.Errorf("shift by the period %d: per-launch log differs", period)
			}
			if !sameBits(shifted.Outputs, base.Outputs) {
				t.Errorf("shift by the period %d: outputs differ", period)
			}

			off := w.run(t, allocUnit)
			if !sameBits(off.Outputs, base.Outputs) {
				t.Errorf("shift by %d: outputs differ", allocUnit)
			}
			if !sameInstrs(off.Log, base.Log) {
				t.Errorf("shift by %d: per-launch instruction counts differ", allocUnit)
			}
		})
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInstrs(a, b []cudart.KernelStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].WarpInstrs != b[i].WarpInstrs {
			return false
		}
	}
	return true
}
