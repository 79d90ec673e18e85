package ptx_test

// Native Go fuzz target for the PTX parser, seeded with the real kernel
// corpus from internal/kernels. Run ad hoc with:
//
//	go test -fuzz=FuzzParse -fuzztime=30s -run '^$' ./internal/ptx
//
// CI runs a short smoke job (see .github/workflows/ci.yml).

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// TestParseKernelCorpusRoundTrip checks every PTX translation unit of
// the cuDNN-analog library parses and survives a Print/Parse round trip
// with every instruction's Raw text unchanged (complements the fuzz
// target, which seeds only the smaller modules to keep mutation
// throughput high).
func TestParseKernelCorpusRoundTrip(t *testing.T) {
	for i, src := range kernels.AllModules() {
		m, err := ptx.Parse(src)
		if err != nil {
			t.Fatalf("module %d does not parse: %v", i, err)
		}
		if len(m.KernelNames()) == 0 {
			t.Fatalf("module %d has no kernels", i)
		}
		m2, err := ptx.Parse(ptx.Print(m))
		if err != nil {
			t.Fatalf("module %d does not round-trip: %v", i, err)
		}
		for _, name := range m.KernelOrder {
			k, k2 := m.Kernels[name], m2.Kernels[name]
			if len(k2.Instrs) != len(k.Instrs) {
				t.Fatalf("module %d kernel %s: %d instructions after the round trip, want %d", i, name, len(k2.Instrs), len(k.Instrs))
			}
			for pc := range k.Instrs {
				if got, want := k2.Instrs[pc].Raw, k.Instrs[pc].Raw; got != want {
					t.Errorf("module %d kernel %s pc %d: Raw %q after the round trip, want %q", i, name, pc, got, want)
				}
			}
		}
	}
}

func FuzzParse(f *testing.F) {
	// Compact seeds covering the grammar: module directives, parameter
	// lists, ranged register declarations, shared/local memory, labels
	// and branches, predication, vector operands, textures, atomics.
	// (The full kernel corpus is too large for good mutation throughput;
	// TestParseKernelCorpusRoundTrip covers it exhaustively instead.)
	f.Add(".version 6.0\n.target sm_61\n.address_size 64\n")
	f.Add(".visible .entry e(){ret;}")
	f.Add(".visible .entry e(.param .u64 p, .param .f32 a){.reg .b32 %r<2>;ld.param.u32 %r1,[p];ret;}")
	f.Add(".visible .entry k(){.reg .pred %p<2>;.reg .b32 %r<4>;mov.u32 %r1, 0;\nL:\nadd.s32 %r1, %r1, 1;setp.lt.u32 %p1, %r1, 8;@%p1 bra L;ret;}")
	f.Add(".visible .entry s(){.shared .align 4 .b8 tile[512];.reg .f32 %f<3>;mov.f32 %f1, 0f3F800000;st.shared.f32 [tile], %f1;bar.sync 0;ret;}")
	f.Add(".visible .entry v(.param .u64 p){.reg .b64 %rd<3>;.reg .f32 %f<5>;ld.param.u64 %rd1,[p];ld.global.v4.f32 {%f1,%f2,%f3,%f4},[%rd1];ret;}")
	f.Add(".tex .u64 texA;\n.visible .entry t(){.reg .f32 %f<5>;.reg .b32 %r<3>;tex.1d.v4.f32.s32 {%f1,%f2,%f3,%f4},[texA,{%r1}];ret;}")
	f.Add(".visible .entry a(.param .u64 p){.reg .b64 %rd<2>;.reg .f32 %f<3>;ld.param.u64 %rd1,[p];atom.global.add.f32 %f1,[%rd1],0f3F800000;ret;}")
	f.Add(".entry x{") // malformed: must error, not hang or panic
	f.Add("@%p1 bra L;\nL:")
	f.Add(".version")

	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.Parse(src)
		if err != nil {
			return // rejecting bad input is fine; panics/hangs are not
		}
		// A parsed module must survive the APIs the simulator uses.
		names := m.KernelNames()
		for _, n := range names {
			if m.Kernels[n] == nil {
				t.Fatalf("KernelNames lists %q but Kernels has no entry", n)
			}
		}
		// Round-trip: Print must emit re-parseable PTX (the debug tool's
		// instrumented-kernel path depends on this).
		if _, err := ptx.Parse(ptx.Print(m)); err != nil {
			t.Fatalf("Print output does not re-parse: %v", err)
		}
	})
}
