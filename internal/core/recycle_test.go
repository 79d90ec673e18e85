package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// recyclePTX: dirty leaves every register slot it uses (14), every word
// of its shared buffer and its threads' local word non-zero; probe, with
// fewer slots (12), so that recycled register files are resliced rather
// than reallocated, reads two of them (%r1 and %r5), its thread's shared
// word and its local word before writing any of them, and stores what it
// read at out[4*gid .. 4*gid+3].
const recyclePTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry dirty()
{
	.reg .pred %p<2>;
	.reg .b32 %r<11>;
	.reg .b64 %rd<4>;
	.shared .align 4 .b8 sbuf[512];
	.local .align 4 .b8 lbuf[4];
	mov.u32 %r1, %tid.x;
	shl.b32 %r2, %r1, 2;
	mov.u32 %r3, sbuf;
	add.u32 %r3, %r3, %r2;
	or.b32 %r4, %r1, 0x5a000000;
	st.shared.u32 [%r3], %r4;
	st.local.u32 [lbuf], %r4;
	bar.sync 0;
	setp.ne.u32 %p1, %r4, 0;
	cvt.u64.u32 %rd1, %r4;
	mul.wide.u32 %rd2, %r4, 3;
	add.u64 %rd3, %rd1, %rd2;
	or.b32 %r5, %r4, 1;
	add.u32 %r6, %r5, %r4;
	xor.b32 %r7, %r6, 0x00ff00ff;
	or.b32 %r8, %r7, 16;
	or.b32 %r9, %r8, %r1;
	or.b32 %r10, %r9, 2;
	or.b32 %r1, %r1, 0x40000000;
	or.b32 %r2, %r2, 0x40000000;
	or.b32 %r3, %r3, 0x40000000;
	ret;
}
.visible .entry probe(.param .u64 pOut)
{
	.reg .b32 %r<11>;
	.reg .b64 %rd<6>;
	.shared .align 4 .b8 sbuf[512];
	.local .align 4 .b8 lbuf[4];
	mov.u32 %r2, %r1;
	mov.u32 %r3, %r5;
	mov.u32 %r4, %tid.x;
	shl.b32 %r6, %r4, 2;
	mov.u32 %r7, sbuf;
	add.u32 %r7, %r7, %r6;
	ld.shared.u32 %r8, [%r7];
	ld.local.u32 %r10, [lbuf];
	mov.u32 %r9, %ctaid.x;
	mov.u32 %r1, %ntid.x;
	mad.lo.u32 %r9, %r9, %r1, %r4;
	mul.wide.u32 %rd1, %r9, 16;
	ld.param.u64 %rd2, [pOut];
	add.u64 %rd2, %rd2, %rd1;
	st.global.u32 [%rd2], %r2;
	st.global.u32 [%rd2+4], %r3;
	st.global.u32 [%rd2+8], %r8;
	st.global.u32 [%rd2+12], %r10;
	ret;
}
`

// recycleDirty is dirty's launch: 4 full warps a block, more blocks than
// the GTX 1050 holds at once.
var recycleDirty = [2]exec.Dim3{{X: 3 * 5 * 8}, {X: 128}}

// TestRecycledStorageReadsFresh: CTA storage that outlives its launch —
// the timing engine's free list, the machine's last RunGrid CTA — reads
// as fresh. dirty fills every register slot, shared word and local word
// it has; then probe, launched next on the same context, reads register
// slots, a shared word and a local word before writing them: every value
// it stores must be 0, in dirty's shape and in a smaller one with a
// partial warp, under every runner that recycles storage. The checkpoint
// row resumes the same state twice on one engine: preloaded CTAs are the
// caller's and never enter the free list, so both resumes must give the
// golden's output, the uninterrupted run's. (Only the first gives its
// 3194 cycles: the second finds the caches warm.)
func TestRecycledStorageReadsFresh(t *testing.T) {
	shapes := []struct {
		name        string
		grid, block exec.Dim3
	}{
		{"dirty's shape", recycleDirty[0], recycleDirty[1]},
		{"smaller", exec.Dim3{X: 7}, exec.Dim3{X: 48}},
	}
	runners := []struct {
		name string
		// runs are the launch orders: dirty then probe, as many times as
		// it takes the storage to reach the path under test
		runs int
		new  func(t *testing.T) cudart.Runner
	}{
		{"timing j1", 1, timingRunner(1, false)},
		{"timing j2", 1, timingRunner(2, false)},
		{"functional", 1, func(*testing.T) cudart.Runner { return cudart.FunctionalRunner{} }},
		// the second round is replay hits: dirty's is re-executed by
		// CaptureGrid, then probe's runs in the storage it left behind
		{"hybrid replay", 2, timingRunner(1, true)},
	}
	for _, r := range runners {
		for _, sh := range shapes {
			t.Run(r.name+"/"+sh.name, func(t *testing.T) {
				ctx := cudart.NewContext(exec.BugSet{})
				mod, err := ctx.RegisterModule(recyclePTX)
				if err != nil {
					t.Fatal(err)
				}
				n := sh.grid.Count() * sh.block.Count() * 4
				out, err := ctx.Malloc(uint64(4 * n))
				if err != nil {
					t.Fatal(err)
				}
				run := r.new(t)
				dirty, err := ctx.M.NewGrid(mod.Kernels["dirty"], recycleDirty[0], recycleDirty[1], nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				probe, err := ctx.M.NewGrid(mod.Kernels["probe"], sh.grid, sh.block, cudart.NewParams().Ptr(out).Bytes(), 0)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < r.runs; round++ {
					if _, err := run.RunKernel(dirty); err != nil {
						t.Fatal(err)
					}
					st, err := run.RunKernel(probe)
					if err != nil {
						t.Fatal(err)
					}
					if want := round > 0; st.Replayed != want {
						t.Fatalf("round %d: probe replayed %v, want %v", round, st.Replayed, want)
					}
					got := make([]byte, 4*n)
					ctx.MemcpyDtoH(got, out)
					for i := 0; i < n; i++ {
						if v := uint32(got[4*i]) | uint32(got[4*i+1])<<8 | uint32(got[4*i+2])<<16 | uint32(got[4*i+3])<<24; v != 0 {
							what := [4]string{"register %r1", "register %r5", "shared word", "local word"}[i%4]
							t.Fatalf("round %d: thread %d read %#x from its %s before writing it, want 0", round, i/4, v, what)
						}
					}
				}
			})
		}
	}

	t.Run("checkpoint resumed twice", func(t *testing.T) {
		blob, err := captureCheckpointSample()
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunCheckpointApp(nil)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := timing.New(timing.GTX1050())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		st, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			out, err := resumeCheckpointSample(st, eng)
			if err != nil {
				t.Fatalf("resume %d: %v", i+1, err)
			}
			if !slices.EqualFunc(out, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Fatalf("resume %d on one engine differs from the uninterrupted run", i+1)
			}
		}
	})
}

// timingRunner returns a constructor for a GTX 1050 engine's runner with
// the given worker count, under hybrid replay when replay is set.
func timingRunner(workers int, replay bool) func(t *testing.T) cudart.Runner {
	return func(t *testing.T) cudart.Runner {
		cfg := timing.GTX1050()
		cfg.ReplayEnabled = replay
		eng, err := timing.New(cfg, timing.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return timing.Runner{E: eng}
	}
}
