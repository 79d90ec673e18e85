package exec_test

import (
	"errors"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/hwmodel"
)

// spin loops on a condition that always holds; mark stores 7 to x[0];
// halfbar is what deadlocks a real GPU: its second warp leaves before the
// barrier the first one waits at, then the first stores 9 to x[0].
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
.visible .entry halfbar(.param .u64 pX)
{
	.reg .pred %p<2>;
	.reg .b32 %r<2>;
	.reg .b64 %rd<2>;
	mov.u32 %r1, %tid.x;
	setp.ge.u32 %p1, %r1, 32;
	@%p1 bra OUT;
	bar.sync 0;
	ld.param.u64 %rd1, [pX];
	st.global.u32 [%rd1], 9;
OUT:
	ret;
}
`

// entryPoints are the ways a grid gets executed functionally. All of them
// run exec's one CTA loop, the hardware oracle included (it used to carry
// a copy without the loop's error exits).
var entryPoints = []string{"RunGrid", "CaptureGrid", "FunctionalRunner", "Oracle"}

// launchVia runs g through the named entry point.
func launchVia(via string, g *exec.Grid) (err error) {
	switch via {
	case "RunGrid":
		return g.Machine().RunGrid(g)
	case "CaptureGrid":
		_, err = g.Machine().CaptureGrid(g)
	case "FunctionalRunner":
		_, err = cudart.FunctionalRunner{}.RunKernel(g)
	default:
		_, err = hwmodel.GTX1050().RunKernel(g)
	}
	return err
}

// TestRunawayGuard: a kernel that never terminates comes back from every
// functional entry point as a RunawayError naming kernel, CTA and warp,
// and the next launch on the same machine runs normally.
func TestRunawayGuard(t *testing.T) {
	const ceiling = 1000
	for _, via := range entryPoints {
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
				return launchVia(via, g)
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

// TestBarrierDeadlock: a barrier is released when every warp still alive
// has arrived, so a CTA whose other warps have exited does not hang — the
// rule that makes RunCTA's "deadlocked" exit unreachable from PTX. Every
// entry point finishes such a kernel, and the store behind the barrier
// lands.
func TestBarrierDeadlock(t *testing.T) {
	for _, via := range entryPoints {
		t.Run(via, func(t *testing.T) {
			ctx := cudart.NewContext(exec.BugSet{})
			mod, err := ctx.RegisterModule(spinPTX)
			if err != nil {
				t.Fatal(err)
			}
			px, err := ctx.Malloc(4)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ctx.M.NewGrid(mod.Kernels["halfbar"], exec.Dim3{X: 3}, exec.Dim3{X: 64}, cudart.NewParams().Ptr(px).Bytes(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := launchVia(via, g); err != nil {
				t.Fatalf("halfbar: %v", err)
			}
			var got [4]byte
			ctx.MemcpyDtoH(got[:], px)
			if got[0] != 9 {
				t.Errorf("x[0] = %d, want the 9 stored behind the barrier", got[0])
			}
		})
	}
}
