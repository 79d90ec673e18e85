package core

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// recyclePTX: dirty holds all 14 of its register slots live at once, so
// each warp's 14 register rows, every word of its shared buffer and its
// threads' local word are left non-zero; probe, with fewer rows (8), so
// that recycled register files are resliced rather than reallocated,
// reads two registers (%r1 and %r5), its thread's shared word and its
// local word before writing any of them, and stores what it read at
// out[4*gid .. 4*gid+3].
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
	selp.b32 %r10, %r10, %r9, %p1;
	xor.b32 %r10, %r10, %r8;
	xor.b32 %r10, %r10, %r7;
	xor.b32 %r10, %r10, %r6;
	xor.b32 %r10, %r10, %r5;
	xor.b32 %r10, %r10, %r4;
	add.u64 %rd3, %rd3, %rd2;
	add.u64 %rd3, %rd3, %rd1;
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
// as fresh. dirty fills every register row, shared word and local word
// it has; then probe, launched next on the same context, reads register
// slots, a shared word and a local word before writing them: every value
// it stores must be 0, in dirty's shape and in a smaller one with a
// partial warp, under every runner that recycles storage. The checkpoint
// row resumes the same state twice on one engine: preloaded CTAs are the
// caller's and never enter the free list, so both resumes must give the
// golden's output, the uninterrupted run's. (Only the first gives its
// 3194 cycles: the second finds the caches warm.)
func TestRecycledStorageReadsFresh(t *testing.T) {
	for _, r := range recycleRunners {
		for _, sh := range recycleShapes {
			t.Run(r.name+"/"+sh.name, func(t *testing.T) {
				runAfterDirty(t, r, recyclePTX, "probe", sh.grid, sh.block, 4, func(round int, out []uint32) {
					for i, v := range out {
						if v != 0 {
							what := [4]string{"register %r1", "register %r5", "shared word", "local word"}[i%4]
							t.Fatalf("round %d: thread %d read %#x from its %s before writing it, want 0", round, i/4, v, what)
						}
					}
				})
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

// recycleShapes are the probes' launches: dirty's, and a smaller one with
// a partial warp.
var recycleShapes = []struct {
	name        string
	grid, block exec.Dim3
}{
	{"dirty's shape", recycleDirty[0], recycleDirty[1]},
	{"smaller", exec.Dim3{X: 7}, exec.Dim3{X: 48}},
}

// recycleRunner is a runner that recycles CTA storage. runs is how many
// times dirty then the probe launch before the storage reaches the path
// under test.
type recycleRunner struct {
	name string
	runs int
	new  func(t *testing.T) cudart.Runner
}

var recycleRunners = []recycleRunner{
	{"timing j1", 1, timingRunner(1, false)},
	{"timing j2", 1, timingRunner(2, false)},
	{"functional", 1, func(*testing.T) cudart.Runner { return cudart.FunctionalRunner{} }},
	// the second round is replay hits: dirty's is re-executed by
	// CaptureGrid, then the probe's runs in the storage it left behind
	{"hybrid replay", 2, timingRunner(1, true)},
}

// runAfterDirty launches recyclePTX's dirty and then kernel name of the
// module src over grid×block, r.runs times on r, with one parameter: an
// output buffer of words 32-bit words per thread, which check gets after
// each round. The probe must need no more register rows than dirty, so
// that its register files are resliced from dirty's.
func runAfterDirty(t *testing.T, r recycleRunner, src, name string, grid, block exec.Dim3, words int, check func(round int, out []uint32)) {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(recyclePTX)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := ctx.M.NewGrid(mod.Kernels["dirty"], recycleDirty[0], recycleDirty[1], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src != recyclePTX {
		if mod, err = ctx.RegisterModule(src); err != nil {
			t.Fatal(err)
		}
	}
	n := grid.Count() * block.Count() * words
	out, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ctx.M.NewGrid(mod.Kernels[name], grid, block, cudart.NewParams().Ptr(out).Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if probe.RegRows() > dirty.RegRows() {
		t.Fatalf("%s needs %d register rows, more than dirty's %d: its register files would be fresh", name, probe.RegRows(), dirty.RegRows())
	}
	run := r.new(t)
	for round := 0; round < r.runs; round++ {
		if _, err := run.RunKernel(dirty); err != nil {
			t.Fatal(err)
		}
		st, err := run.RunKernel(probe)
		if err != nil {
			t.Fatal(err)
		}
		if want := round > 0; st.Replayed != want {
			t.Fatalf("round %d: %s replayed %v, want %v", round, name, st.Replayed, want)
		}
		got := make([]byte, 4*n)
		ctx.MemcpyDtoH(got, out)
		words := make([]uint32, n)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(got[4*i:])
		}
		check(round, words)
	}
}

// sharedRowsPTX: two kernels whose registers share rows. kills defines
// and kills a chain of registers, then stores %r9, which nothing writes,
// and the chain's last value. diamond keeps %r2 from before a divergent
// branch, redefines it and defines %r4 on the odd lanes' side only, runs
// temporaries that die before the join on the even side, and stores %r2
// and %r4 after the join. Each thread stores two words at out[2*gid].
const sharedRowsPTX = `
.version 6.0
.target sm_61
.address_size 64
.visible .entry kills(.param .u64 pOut)
{
	.reg .b32 %r<11>;
	.reg .b64 %rd<3>;
	mov.u32 %r1, %tid.x;
	or.b32 %r2, %r1, 0x5a000000;
	xor.b32 %r3, %r2, 0x00ff00ff;
	add.u32 %r4, %r3, %r2;
	shl.b32 %r5, %r4, 1;
	or.b32 %r6, %r5, 16;
	mov.u32 %r7, %ctaid.x;
	mov.u32 %r8, %ntid.x;
	mad.lo.u32 %r10, %r7, %r8, %r1;
	mul.wide.u32 %rd1, %r10, 8;
	ld.param.u64 %rd2, [pOut];
	add.u64 %rd2, %rd2, %rd1;
	st.global.u32 [%rd2], %r9;
	st.global.u32 [%rd2+4], %r6;
	ret;
}
.visible .entry diamond(.param .u64 pOut)
{
	.reg .pred %p<2>;
	.reg .b32 %r<11>;
	.reg .b64 %rd<3>;
	mov.u32 %r1, %tid.x;
	mov.u32 %r2, 0x11000000;
	and.b32 %r3, %r1, 1;
	setp.eq.u32 %p1, %r3, 0;
	@%p1 bra EVEN;
	or.b32 %r5, %r1, 0x22000000;
	add.u32 %r6, %r5, 3;
	mov.u32 %r2, %r6;
	mov.u32 %r4, %r5;
	bra JOIN;
EVEN:
	or.b32 %r7, %r1, 0x33000000;
	xor.b32 %r8, %r7, 0x0f;
	add.u32 %r9, %r8, %r7;
	shl.b32 %r9, %r9, 2;
JOIN:
	mov.u32 %r7, %ctaid.x;
	mov.u32 %r8, %ntid.x;
	mad.lo.u32 %r10, %r7, %r8, %r1;
	mul.wide.u32 %rd1, %r10, 8;
	ld.param.u64 %rd2, [pOut];
	add.u64 %rd2, %rd2, %rd1;
	st.global.u32 [%rd2], %r2;
	st.global.u32 [%rd2+4], %r4;
	ret;
}
`

// TestSharedRowsReadAsBefore runs sharedRowsPTX's kernels in the
// recycled storage dirty leaves, under every runner that recycles it:
// with registers sharing rows, a register nothing wrote still reads 0 and
// a value kept across a divergent diamond reads what it held, as when
// every register had a row of its own.
func TestSharedRowsReadAsBefore(t *testing.T) {
	want := map[string]func(tid uint32) [2]uint32{
		"kills": func(tid uint32) [2]uint32 {
			r2 := tid | 0x5a000000
			return [2]uint32{0, (r2^0x00ff00ff+r2)<<1 | 16}
		},
		"diamond": func(tid uint32) [2]uint32 {
			if tid&1 == 0 {
				return [2]uint32{0x11000000, 0}
			}
			return [2]uint32{tid | 0x22000000 + 3, tid | 0x22000000}
		},
	}
	for _, name := range []string{"kills", "diamond"} {
		for _, r := range recycleRunners {
			for _, sh := range recycleShapes {
				t.Run(name+"/"+r.name+"/"+sh.name, func(t *testing.T) {
					threads := sh.block.Count()
					runAfterDirty(t, r, sharedRowsPTX, name, sh.grid, sh.block, 2, func(round int, out []uint32) {
						for gid := 0; gid < len(out)/2; gid++ {
							w := want[name](uint32(gid % threads))
							if got := [2]uint32{out[2*gid], out[2*gid+1]}; got != w {
								t.Fatalf("round %d: thread %d stored %#x, want %#x", round, gid, got, w)
							}
						}
					})
				})
			}
		}
	}
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
