package exec_test

import (
	"errors"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// spin loops on a condition that always holds; mark stores 7 to x[0].
const spinPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry spin()
{
	.reg .pred %p<2>;
	.reg .b32 %r<2>;
	mov.u32 %r1, 0;
LOOP:
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra LOOP;
	ret;
}
.visible .entry mark(.param .u64 pX)
{
	.reg .b64 %rd<2>;
	ld.param.u64 %rd1, [pX];
	st.global.u32 [%rd1], 7;
	ret;
}
`

// TestRunawayGuard: a kernel that never terminates comes back from every
// functional entry point as a RunawayError naming kernel, CTA and warp,
// and the next launch on the same machine runs normally.
func TestRunawayGuard(t *testing.T) {
	const ceiling = 1000
	for _, via := range []string{"RunGrid", "CaptureGrid", "FunctionalRunner"} {
		t.Run(via, func(t *testing.T) {
			ctx := cudart.NewContext(exec.BugSet{})
			exec.SetWarpInstrCeiling(ctx.M, ceiling)
			mod, err := ctx.RegisterModule(spinPTX)
			if err != nil {
				t.Fatal(err)
			}
			px, err := ctx.Malloc(4)
			if err != nil {
				t.Fatal(err)
			}
			launch := func(kernel string, params []byte) error {
				g, err := ctx.M.NewGrid(mod.Kernels[kernel], exec.Dim3{X: 3}, exec.Dim3{X: 64}, params, 0)
				if err != nil {
					t.Fatal(err)
				}
				switch via {
				case "RunGrid":
					return ctx.M.RunGrid(g)
				case "CaptureGrid":
					_, err = ctx.M.CaptureGrid(g)
				default:
					_, err = cudart.FunctionalRunner{}.RunKernel(g)
				}
				return err
			}
			err = launch("spin", nil)
			var runaway *exec.RunawayError
			if !errors.As(err, &runaway) {
				t.Fatalf("spin kernel returned %v, want a RunawayError", err)
			}
			if *runaway != (exec.RunawayError{Kernel: "spin", CTA: 0, Warp: 0, Instrs: ceiling}) {
				t.Errorf("RunawayError = %+v, want spin, CTA 0, warp 0 after %d instructions", *runaway, ceiling)
			}
			if err := launch("mark", cudart.NewParams().Ptr(px).Bytes()); err != nil {
				t.Fatalf("launch after the runaway failed: %v", err)
			}
			var got [4]byte
			ctx.MemcpyDtoH(got[:], px)
			if got[0] != 7 {
				t.Errorf("x[0] = %d after the follow-up launch, want 7", got[0])
			}
		})
	}
}
