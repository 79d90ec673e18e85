package exec

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// stepBenchKernel builds a counted loop whose body is eight warp
// instructions of one class (three more per iteration are loop overhead) —
// the same shapes bench/ptx/probes.ptx prices as exec.step_ns.*, so a
// profile taken here explains a number reported there.
func stepBenchKernel(class string) string {
	b := kernels.NewBuilder("step_" + class)
	buf := b.LoadPtr(b.PtrParam("pBuf"))
	iters := b.LoadU32(b.U32Param("pIters"))
	gid := b.GlobalTidX()
	addr := b.ElemAddr(buf, gid, 4)
	i := b.R(kernels.B32)
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	// each case emits its set-up now and returns the eight-instruction body
	var body func()
	repeat := func(n int, f func()) func() {
		return func() {
			for k := 0; k < n; k++ {
				f()
			}
		}
	}
	switch class {
	case "alu_f32":
		x, h, t, u := b.MovF32(1), b.MovF32(0.5), b.R(kernels.F32), b.R(kernels.F32)
		body = repeat(2, func() {
			b.I("fma.rn.f32 %s, %s, %s, %s;", x, x, h, h)
			b.I("add.f32 %s, %s, %s;", t, x, h)
			b.I("mul.f32 %s, %s, %s;", u, t, h)
			b.I("max.f32 %s, %s, %s;", x, u, h)
		})
	case "alu_s32":
		x, t, u, v := b.R(kernels.B32), b.R(kernels.B32), b.R(kernels.B32), b.R(kernels.B32)
		b.I("mov.u32 %s, 3;", x)
		body = repeat(2, func() {
			b.I("add.s32 %s, %s, %s;", t, gid, x)
			b.I("mad.lo.s32 %s, %s, %s, %s;", u, t, x, gid)
			b.I("shl.b32 %s, %s, 2;", v, u)
			b.I("and.b32 %s, %s, 1023;", x, v)
		})
	case "cvt_setp":
		lim, f, r, p, q := b.MovF32(2), b.R(kernels.F32), b.R(kernels.B32), b.R(kernels.Pred), b.R(kernels.Pred)
		body = repeat(2, func() {
			b.I("cvt.rn.f32.u32 %s, %s;", f, i)
			b.I("setp.lt.f32 %s, %s, %s;", p, f, lim)
			b.I("cvt.rzi.s32.f32 %s, %s;", r, f)
			b.I("setp.eq.s32 %s, %s, %s;", q, r, gid)
		})
	case "ld_global":
		f := b.R(kernels.F32)
		body = repeat(8, func() { b.I("ld.global.f32 %s, [%s];", f, addr) })
	case "st_global":
		f := b.MovF32(1)
		body = repeat(8, func() { b.I("st.global.f32 [%s], %s;", addr, f) })
	case "ld_shared":
		sbuf := b.Shared("sbuf", 512, 4)
		base, sa, f, tid := b.R(kernels.B32), b.R(kernels.B32), b.R(kernels.F32), b.R(kernels.B32)
		b.I("mov.u32 %s, %s;", base, sbuf)
		b.I("mov.u32 %s, %%tid.x;", tid)
		b.I("mad.lo.s32 %s, %s, 4, %s;", sa, tid, base)
		b.I("st.shared.f32 [%s], %s;", sa, b.MovF32(1))
		body = repeat(8, func() { b.I("ld.shared.f32 %s, [%s];", f, sa) })
	case "atom_global":
		f, one := b.R(kernels.F32), b.MovF32(1)
		body = repeat(8, func() { b.I("atom.global.add.f32 %s, [%s], %s;", f, addr, one) })
	case "bra_div":
		odd, p, n := b.R(kernels.B32), b.R(kernels.Pred), b.R(kernels.B32)
		b.I("and.b32 %s, %s, 1;", odd, gid)
		b.I("setp.eq.u32 %s, %s, 1;", p, odd)
		b.I("mov.u32 %s, 0;", n)
		body = repeat(4, func() {
			skip := b.NewLabel("skip")
			b.I("@%s bra %s;", p, skip)
			b.I("add.u32 %s, %s, 1;", n, n)
			b.L(skip)
		})
	case "bar_sync":
		body = repeat(8, func() { b.I("bar.sync 0;") })
	default:
		panic("unknown step benchmark class " + class)
	}
	b.I("mov.u32 %s, 0;", i)
	b.L(loop)
	b.GuardEnd(i, iters, done)
	body()
	b.I("add.u32 %s, %s, 1;", i, i)
	b.I("bra %s;", loop)
	b.L(done)
	return kernels.Module(nil, b.Build())
}

// BenchmarkStepWarp reports ns per warp instruction by op class, through
// Machine.RunGrid (4 CTAs x 4 warps x 64 iterations per run).
func BenchmarkStepWarp(b *testing.B) {
	const ctas, threads, iters = 4, 128, 64
	for _, class := range []string{"alu_f32", "alu_s32", "cvt_setp", "ld_global", "st_global", "ld_shared", "atom_global", "bra_div", "bar_sync"} {
		b.Run(class, func(b *testing.B) {
			mod, err := ptx.Parse(stepBenchKernel(class))
			if err != nil {
				b.Fatal(err)
			}
			e := newEnv(b, BugSet{})
			buf, err := e.alloc.Alloc(4 * ctas * threads)
			if err != nil {
				b.Fatal(err)
			}
			e.mem.Write(buf, make([]byte, 4*ctas*threads))
			g, err := e.m.NewGrid(mod.Kernels["step_"+class], Dim3{X: ctas}, Dim3{X: threads}, params(buf, iters), 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.m.RunGrid(g); err != nil { // warm: pages resident, program decoded
				b.Fatal(err)
			}
			instrs := e.m.Coverage().Total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.m.RunGrid(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(instrs), "ns/warp-instr")
		})
	}
}

// TestStepAllocatesNothing: what a functional launch allocates (its CTA
// state) must not grow with the number of warp instructions it executes,
// for any op class.
func TestStepAllocatesNothing(t *testing.T) {
	for _, class := range []string{"alu_f32", "alu_s32", "cvt_setp", "ld_global", "st_global", "ld_shared", "atom_global", "bra_div", "bar_sync"} {
		mod, err := ptx.Parse(stepBenchKernel(class))
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(t, BugSet{})
		buf := e.allocU32(t, make([]uint32, 2*64))
		allocs := func(iters int) float64 {
			g, err := e.m.NewGrid(mod.Kernels["step_"+class], Dim3{X: 2}, Dim3{X: 64}, params(buf, iters), 0)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				if err := e.m.RunGrid(g); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(2), allocs(64); long > short {
			t.Errorf("%s: 62 more loop iterations cost %.0f more allocations (%.0f vs %.0f)", class, long-short, long, short)
		}
	}
}
