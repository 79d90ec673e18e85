package timing_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
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

// TestAddressPeriodSets checks addressPeriod's cache terms directly, on
// the cache model itself: for the L1 and for an L2 slice, Assoc+1 lines
// a period apart share one set, so filling them evicts the first. A
// period missing the L2 term (16 KiB on the GTX 1050, half a slice's set
// span) splits them over two sets, and nothing is evicted.
func TestAddressPeriodSets(t *testing.T) {
	cfg := timing.GTX1050()
	period := addressPeriod(cfg)
	for name, cc := range map[string]cache.Config{"L1": cfg.L1, "L2": cfg.L2} {
		c, err := cache.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range uint64(cc.Assoc + 1) {
			c.Access(i*period, false)
			c.Fill(i*period, false)
		}
		if res, _ := c.Access(0, false); res == cache.Hit {
			t.Errorf("%s: %d lines %d bytes apart left the first resident: they do not share a set", name, cc.Assoc+1, period)
		}
	}
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
func runLeNetPadded(t testing.TB, pad uint64) runSnapshot {
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

// layoutWorkloads are the runs the layout tests shift: LeNet and two
// golden runs.
var layoutWorkloads = []struct {
	name string
	run  func(t testing.TB, pad uint64) runSnapshot
}{
	{"lenet_1_image", runLeNetPadded},
	{"gemm_64x48x56", func(t testing.TB, pad uint64) runSnapshot { return runPadded(t, 1, pad, gemmLoad) }},
	{"lenet_conv1_igemm", func(t testing.TB, pad uint64) runSnapshot { return runPadded(t, 1, pad, lenetConvLoad) }},
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
	for _, w := range layoutWorkloads {
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

// BenchmarkLayoutSweep is the layout sweep behind TestLayoutShift: each
// of its workloads at every allocation-unit offset inside one
// addressPeriod (128 on the GTX 1050), which covers every layout the
// address map can tell apart. It reports the modelled cycles' min,
// median and max over the offsets, and pinned_pctile, the percentage of
// offsets that run in fewer cycles than the pinned, unshifted layout.
// The LeNet sweep takes about a minute on 2 vCPUs; run it with
//
//	go test ./internal/timing -run '^$' -bench LayoutSweep -benchtime 1x
func BenchmarkLayoutSweep(b *testing.B) {
	period := addressPeriod(timing.GTX1050())
	for _, w := range layoutWorkloads {
		b.Run(w.name, func(b *testing.B) {
			var cycles []uint64
			for range b.N {
				cycles = cycles[:0]
				for pad := uint64(0); pad < period; pad += allocUnit {
					cycles = append(cycles, w.run(b, pad).Cycles)
				}
			}
			pinned, n := cycles[0], len(cycles)
			slices.Sort(cycles)
			below, _ := slices.BinarySearch(cycles, pinned)
			b.ReportMetric(float64(cycles[0]), "min_cycles")
			b.ReportMetric(float64(cycles[(n-1)/2]+cycles[n/2])/2, "median_cycles")
			b.ReportMetric(float64(cycles[n-1]), "max_cycles")
			b.ReportMetric(100*float64(below)/float64(n), "pinned_pctile")
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
