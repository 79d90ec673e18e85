package hwmodel_test

import (
	"math"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/hwmodel"
)

// TestOracleRunsFunctionally: the oracle must produce correct functional
// results (hardware is always right) and NVProf-style per-kernel samples.
func TestOracleRunsFunctionally(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oracle := hwmodel.GTX1050()
	ctx.SetRunner(oracle)
	n := 512
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i) - 256
	}
	px, _ := ctx.Malloc(uint64(4 * n))
	ctx.MemcpyF32HtoD(px, x)
	py, _ := ctx.Malloc(uint64(4 * n))
	if err := h.ActivationForward(px, py, n); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, n)
	for i, v := range got {
		want := x[i]
		if want < 0 {
			want = 0
		}
		if v != want {
			t.Fatalf("relu[%d] = %v, want %v", i, v, want)
		}
	}
	if len(oracle.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(oracle.Samples))
	}
	s := oracle.Samples[0]
	if s.Cycles <= oracle.LaunchOverhead {
		t.Errorf("cycles %v should exceed launch overhead", s.Cycles)
	}
	if s.WarpInstrs == 0 || s.MemBytes == 0 {
		t.Errorf("profile counters empty: %+v", s)
	}
	// the launch log's record carries the counts the sample was made from,
	// and scoring it gives the sample's cycles
	k := ctx.KernelStatsLog()[0]
	if k.WarpInstrs != s.WarpInstrs || uint64(k.OracleSegments)*exec.SegmentBytes != s.MemBytes {
		t.Errorf("record counts %d instructions, %d segments; sample %+v", k.WarpInstrs, k.OracleSegments, s)
	}
	if got := oracle.Estimate(k); got != s.Cycles {
		t.Errorf("Estimate(record) = %v, sample cycles %v", got, s.Cycles)
	}
}

// TestFudgeMatchesKernelFamilies pins the calibration table's dispatch
// through Estimate: a kernel's overhead-free estimate over a plain
// kernel's, for the same counts, is its family's factor. The memBound rows
// put the bandwidth term on top, so the factor scales whichever term wins.
func TestFudgeMatchesKernelFamilies(t *testing.T) {
	o := hwmodel.GTX1050()
	issueBound := cudart.KernelStats{WarpInstrs: 1 << 20, OracleSegments: 1}
	memBound := cudart.KernelStats{WarpInstrs: 1, OracleSegments: 1 << 28} // 2^35 bytes: past uint32
	for _, c := range []struct {
		name   string
		counts cudart.KernelStats
		factor float64
	}{
		{"fft2d_r2c_32x32", issueBound, 0.50},
		{"fft2d_c2r_16x16", memBound, 0.50},
		{"cgemm", issueBound, 0.35},
		{"gemv2t", issueBound, 0.55},
		{"lrn_forward", memBound, 0.25},
		{"LRN_Backward", issueBound, 0.25}, // matched case-insensitively
		{"winograd_fused_2x2_3x3", issueBound, 0.60},
		{"sgemm_tiled", issueBound, 0.85},
		{"relu_forward", issueBound, 1},
		{"pad2d", memBound, 1},
	} {
		plain, k := c.counts, c.counts
		plain.Name, k.Name = "plain", c.name
		got := (o.Estimate(k) - o.LaunchOverhead) / (o.Estimate(plain) - o.LaunchOverhead)
		if math.Abs(got-c.factor) > 1e-12 {
			t.Errorf("%s: estimate scaled by %v, want %v", c.name, got, c.factor)
		}
	}
	if o.Estimate(memBound) <= o.Estimate(issueBound) {
		t.Errorf("2^28 segments (%v cycles) estimated no slower than 2^20 instructions (%v): the bandwidth term is not the larger",
			o.Estimate(memBound), o.Estimate(issueBound))
	}
}
