package exec_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// TestNegativeLaunchDims: a launch with a negative component in either
// dim3 is refused by NewGrid (cudaErrorInvalidConfiguration's analogue)
// on the functional runner and on timing.Runner, rather than running
// nothing or dividing by zero in the dispatcher, and the same context's
// next valid launch runs.
func TestNegativeLaunchDims(t *testing.T) {
	dims := []struct {
		name        string
		grid, block exec.Dim3
	}{
		{"block_x", exec.Dim3{X: 1}, exec.Dim3{X: -1}},
		{"block_y", exec.Dim3{X: 1}, exec.Dim3{X: 32, Y: -1}},
		{"block_z", exec.Dim3{X: 1}, exec.Dim3{X: 32, Z: -2}},
		{"grid_x", exec.Dim3{X: -4}, exec.Dim3{X: 32}},
		{"grid_yz", exec.Dim3{X: 2, Y: -1, Z: -1}, exec.Dim3{X: 32}},
	}
	runners := []string{"functional", "timing"}
	for _, via := range runners {
		for _, d := range dims {
			t.Run(via+"/"+d.name, func(t *testing.T) {
				ctx := cudart.NewContext(exec.BugSet{})
				if via == "timing" {
					eng, err := timing.New(timing.GTX1050())
					if err != nil {
						t.Fatal(err)
					}
					ctx.SetRunner(timing.Runner{E: eng})
				}
				if _, err := ctx.RegisterModule(spinPTX); err != nil {
					t.Fatal(err)
				}
				px, err := ctx.Malloc(4)
				if err != nil {
					t.Fatal(err)
				}
				params := cudart.NewParams().Ptr(px)
				_, err = ctx.Launch("mark", d.grid, d.block, params, 0)
				if err == nil || !strings.Contains(err.Error(), "negative dimension") {
					t.Fatalf("launch with grid %v, block %v returned %v, want a negative-dimension error", d.grid, d.block, err)
				}
				if _, err := ctx.Launch("mark", exec.Dim3{X: 1}, exec.Dim3{X: 32}, params, 0); err != nil {
					t.Fatalf("valid launch after the refused one failed: %v", err)
				}
				var got [4]byte
				ctx.Mem.Read(px, got[:])
				if v := binary.LittleEndian.Uint32(got[:]); v != 7 {
					t.Errorf("x[0] = %d after the valid launch, want 7", v)
				}
			})
		}
	}
}
