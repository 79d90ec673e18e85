package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestConvSampleSweepAllAlgorithms exercises every (direction, algorithm)
// pair of the paper's §V-A sweep end to end under the timing model.
func TestConvSampleSweepAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow under -short")
	}
	shape := core.ConvSampleShape{N: 1, C: 4, H: 16, W: 16, K: 4, R: 3, Pad: 1}
	for _, dir := range []core.ConvDirection{core.Forward, core.BackwardData, core.BackwardFilter} {
		for _, algo := range core.AlgorithmsFor(dir) {
			res, err := core.RunConvSample(core.GTX1080Ti, 1, dir, algo, shape)
			if err != nil {
				t.Errorf("%s/%s: %v", dir, algo, err)
				continue
			}
			if res.Cycles == 0 {
				t.Errorf("%s/%s: no cycles simulated", dir, algo)
			}
			if len(res.Kernels) == 0 {
				t.Errorf("%s/%s: no kernels launched", dir, algo)
			}
		}
	}
}

// TestMNISTCorrelationShape checks the §IV reproduction invariants on a
// single image: self-check passes, correlation is positive and strong,
// the power breakdown is core-dominated with a sizeable idle share.
func TestMNISTCorrelationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation run is slow under -short")
	}
	res, err := core.RunMNISTCorrelation(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SelfCheckOK {
		t.Errorf("self-check failed: %v vs %v", res.GPUClasses, res.CPUClasses)
	}
	if res.Correlation.Pearson < 0.5 {
		t.Errorf("per-kernel Pearson = %.2f, want strong positive correlation", res.Correlation.Pearson)
	}
	if res.Correlation.OverallError > 0.5 {
		t.Errorf("overall error = %.0f%%, want the paper's within-30%% neighbourhood", res.Correlation.OverallError*100)
	}
	if len(res.Correlation.Kernels) < 10 {
		t.Errorf("only %d distinct kernels; the MNIST mix should be richer", len(res.Correlation.Kernels))
	}
	// Fig. 7 kernel names must appear in the mix
	want := map[string]bool{
		"fft2d_r2c_32x32": false, "fft2d_r2c_16x16": false,
		"fft2d_c2r_32x32": false, "cgemm": false, "gemv2t": false,
		"lrn_forward": false, "winograd_fused_2x2_3x3": false,
	}
	for _, k := range res.Correlation.Kernels {
		if _, ok := want[k.Name]; ok {
			want[k.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("kernel %s missing from the MNIST mix", name)
		}
	}
	total := res.Power.Total()
	if res.Power.Core/total < 0.5 {
		t.Errorf("core power share = %.0f%%, want dominant", res.Power.Core/total*100)
	}
	if res.Power.Idle/total < 0.1 || res.Power.Idle/total > 0.45 {
		t.Errorf("idle power share = %.0f%%, want a sizeable minority", res.Power.Idle/total*100)
	}
}

// TestCheckpointSampleWorkerIdentity: the §III-F round trip resumes on an
// engine stepped by any number of workers to the same cycle and the same
// output (the driver itself checks that output against an uninterrupted
// run).
func TestCheckpointSampleWorkerIdentity(t *testing.T) {
	one, err := core.RunCheckpointSample(1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := core.RunCheckpointSample(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("-j 1 and -j 2 disagree:\n%+v\n%+v", one, two)
	}
	if one.Cycles == 0 || one.InFlight != 2 || one.Kernel != "sgemm_tiled" {
		t.Errorf("checkpoint landed in %s with %d CTAs in flight and resumed for %d cycles; want sgemm_tiled, 2, > 0",
			one.Kernel, one.InFlight, one.Cycles)
	}
}
