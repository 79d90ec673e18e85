package core_test

import (
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/golden"
	"repro/internal/hwmodel"
	"repro/internal/mnist"
	"repro/internal/torch"
)

var update = flag.Bool("update", false, "rewrite testdata/oracle_pin.json from the hardware oracle's numbers now")

// oraclePin pins the hardware oracle's view of the §IV LeNet run: per
// launch the kernel, the two counts the oracle reads and its cycle
// estimate (as float64 bits, so the pin is exact), and the correlation
// with the detailed run that Figs. 6-7 print.
type oraclePin struct {
	Launches      []oracleLaunch `json:"launches"`
	OverallErrPct float64        `json:"overall_err_pct"`
	HWCycles      float64        `json:"hw_cycles"`
	Pearson       float64        `json:"pearson"`
}

type oracleLaunch struct {
	Name       string `json:"name"`
	WarpInstrs uint64 `json:"warp_instrs"`
	MemBytes   uint64 `json:"mem_bytes"`
	CyclesBits uint64 `json:"cycles_bits"`
}

// TestOraclePinned pins the oracle's view of the §IV run for LeNet at 1
// and 4 images, read off the detailed run's kernel log through Estimate.
// The Runner form, which counts on a functional pass of its own, must
// agree with it launch for launch.
func TestOraclePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two correlation runs are slow under -short")
	}
	got := map[string]oraclePin{}
	oracle := hwmodel.GTX1050()
	for _, images := range []int{1, 4} {
		res, err := core.RunMNISTCorrelation(1, images)
		if err != nil {
			t.Fatal(err)
		}
		pin := oraclePin{
			OverallErrPct: 100 * res.Correlation.OverallError,
			HWCycles:      res.HWCycles,
			Pearson:       res.Correlation.Pearson,
		}
		for _, k := range res.Kernels {
			pin.Launches = append(pin.Launches, oracleLaunch{k.Name, k.WarpInstrs, uint64(k.OracleSegments) * exec.SegmentBytes, math.Float64bits(oracle.Estimate(k))})
		}
		name := fmt.Sprintf("lenet_images%d", images)
		got[name] = pin

		samples := oracleSamples(t, images)
		if len(samples) != len(pin.Launches) {
			t.Fatalf("%s: the Runner form sampled %d launches, the detailed log has %d", name, len(samples), len(pin.Launches))
		}
		for i, s := range samples {
			if l := (oracleLaunch{s.Name, s.WarpInstrs, s.MemBytes, math.Float64bits(s.Cycles)}); l != pin.Launches[i] {
				t.Errorf("%s launch %d: the Runner form sampled %+v, the detailed log scores %+v", name, i, l, pin.Launches[i])
			}
		}
	}
	golden.Check(t, filepath.Join("testdata", "oracle_pin.json"), *update, got, nil)
}

// oracleSamples runs LeNet's forward pass on a functional device under
// the oracle as its runner: same weights and images as the correlation.
func oracleSamples(t *testing.T, images int) []hwmodel.Sample {
	t.Helper()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := hwmodel.GTX1050()
	dev.Ctx.SetRunner(oracle)
	model, err := mnist.NewLeNet(dev, 7, mnist.DefaultAlgos())
	if err != nil {
		t.Fatal(err)
	}
	imgs, _ := mnist.NewDataset(1).Batch(images)
	if _, err := model.Forward(imgs, images); err != nil {
		t.Fatal(err)
	}
	return oracle.Samples
}
