package gpgpusim

// Smoke tests for the main packages under cmd/ and examples/: every one
// must compile, and the quickstart / standalone-simulator / LeNet paths
// and every workload of the one front door must run end to end with
// tiny configurations.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const smokeSaxpyPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry saxpy(
	.param .u64 pX,
	.param .u64 pY,
	.param .f32 pA,
	.param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<5>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<6>;

	ld.param.u64 %rd1, [pX];
	ld.param.u64 %rd2, [pY];
	ld.param.f32 %f1, [pA];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.u32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd1, %rd1;
	cvta.to.global.u64 %rd2, %rd2;
	mul.wide.u32 %rd3, %r5, 4;
	add.s64 %rd4, %rd1, %rd3;
	add.s64 %rd5, %rd2, %rd3;
	ld.global.f32 %f2, [%rd4];
	ld.global.f32 %f3, [%rd5];
	fma.rn.f32 %f4, %f2, %f1, %f3;
	st.global.f32 [%rd5], %f4;
DONE:
	ret;
}
`

// buildMains compiles every main package into a temp dir and returns it.
func buildMains(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	cmd := exec.Command(goTool, "build", "-o", dir+string(os.PathSeparator), "./cmd/...", "./examples/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building main packages failed: %v\n%s", err, out)
	}
	return dir
}

// TestMainPackagesSmoke builds all cmd/ and examples/ binaries, then
// drives the standalone simulator and the quickstart example with tiny
// configs, asserting success and non-empty statistics output.
func TestMainPackagesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildMains(t)

	// every expected binary exists
	for _, name := range []string{
		"gpgpusim", "debugtool", "quickstart", "lenet_mnist",
		"checkpoint_resume", "debug_workflow", "concurrent_streams",
	} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			t.Errorf("binary %s not built: %v", name, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	ptxFile := filepath.Join(t.TempDir(), "saxpy.ptx")
	if err := os.WriteFile(ptxFile, []byte(smokeSaxpyPTX), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("gpgpusim_functional", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-args", "buf256,buf256,f2,i256", "-grid", "2", "-block", "128", ptxFile)
		if !strings.Contains(out, "functional mode") || !strings.Contains(out, "warp instructions") {
			t.Fatalf("unexpected output:\n%s", out)
		}
	})

	t.Run("gpgpusim_perf_streams", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-perf", "-streams", "2", "-j", "2",
			"-args", "buf256,buf256,f2,i256", "-grid", "2", "-block", "128", ptxFile)
		if !strings.Contains(out, "overlap speedup") || !strings.Contains(out, "cycles") {
			t.Fatalf("missing concurrent-stream stats in output:\n%s", out)
		}
	})

	t.Run("quickstart", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "quickstart"))
		if !strings.Contains(out, "functional mode") || !strings.Contains(out, "performance mode") {
			t.Fatalf("quickstart did not report both modes:\n%s", out)
		}
	})

	t.Run("concurrent_streams", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "concurrent_streams"))
		want, err := os.ReadFile(filepath.Join("testdata", "concurrent_streams.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Fatalf("concurrent_streams output differs from its golden:\n--- got\n%s--- want\n%s", out, want)
		}
	})

	t.Run("gpgpusim_workload_transformer", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "transformer", "-streams", "2", "-j", "2")
		for _, want := range []string{"transformer workload", "max |sim - cpu|", "overlap speedup"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in transformer workload output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_transformer_replay", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "transformer", "-replay")
		for _, want := range []string{"transformer replay workload", "replay coverage", "hits", "per-kernel replay coverage"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in transformer replay output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_decode", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "decode", "-streams", "2", "-prompt", "3", "-gen", "3", "-j", "2")
		for _, want := range []string{
			"decode workload", "tokens/sec", "overlap speedup",
			"replay coverage", "hybrid throughput", "per-kernel replay coverage",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in decode workload output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_train", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "train", "-steps", "3", "-replay", "-j", "2")
		for _, want := range []string{
			"train workload", "3 steps", "training loss (device vs CPU mirror)",
			"cpu_loss", "max |device - cpu| loss diff", "tokens/Mcycle",
			"replay coverage", "per-kernel replay coverage",
			"layernorm_backward", "sgd_update",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in train workload output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_train_multigpu", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "train", "-devices", "2", "-steps", "2", "-j", "2")
		for _, want := range []string{
			"multi-GPU train workload: data-parallel across 2 devices",
			"rank0", "rank1", "max |device - cpu mirror| loss diff",
			"final weights byte-identical across devices",
			"nvlink:", "per-device engine counters", "gpu0", "gpu1",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in multi-GPU train output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_transformer_multigpu", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "transformer", "-devices", "2", "-j", "2")
		for _, want := range []string{
			"multi-GPU transformer workload: tensor-parallel across 2 devices",
			"outputs bitwise identical to the single-device reference",
			"all-gathers", "nvlink:", "per-device engine counters", "gpu1",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in multi-GPU transformer output:\n%s", want, out)
			}
		}
	})

	// a flag the workload does not define, and a value or combination it
	// could not honour, must fail loudly (exit 2 naming the flag) instead
	// of being silently ignored
	t.Run("gpgpusim_invalid_flag_combos", func(t *testing.T) {
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"-workload", "decode", "-decode"}, "flag provided but not defined: -decode"},
			{[]string{"-workload", "transformer", "-prompt", "3"}, "flag provided but not defined: -prompt"},
			{[]string{"-workload", "transformer", "-gen", "5"}, "flag provided but not defined: -gen"},
			{[]string{"-workload", "serve", "-rate", "10", "-trace", "x.trace"}, "mutually exclusive"},
			{[]string{"-workload", "serve", "-prompt", "3"}, "-prompt/-gen only apply with -decode"},
			{[]string{"-workload", "decode", "-steps", "2"}, "flag provided but not defined: -steps"},
			{[]string{"-workload", "train", "-devices", "0"}, "-devices must be >= 1"},
			{[]string{"-workload", "serve", "-devices", "2"}, "flag provided but not defined: -devices"},
			{[]string{"-workload", "transformer", "-devices", "2", "-streams", "2"}, "-streams only applies to single-device runs"},
			{[]string{"-workload", "transformer", "-devices", "2", "-replay"}, "-replay with -devices only applies to -workload train"},
			{[]string{"-workload", "train", "-replay-resample", "2"}, "-replay-resample only applies with -replay"},
			{[]string{"-workload", "serve", "-replay-resample", "2"}, "-replay-resample only applies with -replay"},
			// both ran to completion, every flag after the name ignored,
			// when one flag set served every mode
			{[]string{"-workload", "membound", "-streams", "4", "-rate", "3", "-requests", "9", "-serve-seed", "2", "-perf", "-kernel", "foo", "-grid", "9"}, "flag provided but not defined: -streams"},
			{[]string{"-workload", "train", "-streams", "3", "-trace", "nosuch.trace"}, "flag provided but not defined: -streams"},
			// ran one CTA / one-thread blocks instead of the shape typed
			{[]string{"-grid", "abc", ptxFile}, "-grid"},
			{[]string{"-block", "12x8", ptxFile}, "-block"},
		} {
			out, code := runBinaryExpectError(t, filepath.Join(bin, "gpgpusim"), c.args...)
			if code != 2 {
				t.Errorf("gpgpusim %v exited %d, want usage exit 2\n%s", c.args, code, out)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("gpgpusim %v: missing %q in error output:\n%s", c.args, c.want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_serve", func(t *testing.T) {
		// a pinned 16-request trace: arrivals every 40k cycles, 12 tokens,
		// 2 chain iterations each — the percentile summary must appear
		var trace strings.Builder
		trace.WriteString("# gpgpusim-serve-trace v1\n")
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&trace, "%d 12 2\n", i*40000)
		}
		traceFile := filepath.Join(t.TempDir(), "arrivals.trace")
		if err := os.WriteFile(traceFile, []byte(trace.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "serve", "-trace", traceFile, "-j", "2")
		for _, want := range []string{
			"serve workload", "16 requests", "latency p50", "p99.9",
			"ttft p50", "goodput", "latency percentiles over serving time",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in serve workload output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_serve_diurnal", func(t *testing.T) {
		// replay the checked-in diurnal v2 trace (low→peak→low KV-cached
		// decode day) end to end through the CLI
		trace := filepath.Join("internal", "serve", "testdata", "diurnal.trace")
		if _, err := os.Stat(trace); err != nil {
			t.Fatalf("checked-in diurnal trace missing: %v", err)
		}
		out := runBinary(t, filepath.Join(bin, "gpgpusim"),
			"-workload", "serve", "-trace", trace, "-j", "2")
		for _, want := range []string{
			"serve workload", "22 requests", "decode serving", "KV budget",
			"latency p50", "ttft p50", "goodput",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in diurnal serve output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_membound", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"), "-workload", "membound")
		for _, want := range []string{"membound workload", "avg_seg_lat", "load-dependent latency", "per-kernel memory counters"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in membound workload output:\n%s", want, out)
			}
		}
	})

	// the paper's experiments, folded into the front door (their full
	// stdout is pinned in cmd/gpgpusim/testdata)
	t.Run("bank_camping", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"), "-workload", "camping")
		for _, want := range []string{"camped", "streaming", "DRAM utilization", "avg segment latency"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in camping workload output:\n%s", want, out)
			}
		}
	})

	t.Run("gpgpusim_workload_mnist", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"), "-workload", "mnist", "-images", "1")
		for _, want := range []string{"self-check", "correlation", "cycles"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in mnist workload output:\n%s", want, out)
			}
		}
	})

	t.Run("convsample", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "gpgpusim"), "-workload", "convsample", "-c", "2", "-k", "2", "-hw", "12")
		for _, want := range []string{"conv_sample", "cycles", "IPC"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in convsample workload output:\n%s", want, out)
			}
		}
	})

	// the remaining fast binaries must emit their statistics output, not
	// just exit 0 (lenet_mnist runs for tens of seconds and stays
	// build-only here)

	t.Run("debugtool", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "debugtool"))
		if !strings.Contains(out, "first incorrectly executing kernel") &&
			!strings.Contains(out, "first incorrectly executing instruction") &&
			!strings.Contains(out, "incorrect") {
			t.Fatalf("debugtool did not report a localised fault:\n%s", out)
		}
	})

	t.Run("checkpoint_resume", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "checkpoint_resume"))
		for _, want := range []string{"checkpoint", "resumed in performance mode", "cycles"} {
			if !strings.Contains(out, want) {
				t.Fatalf("missing %q in checkpoint_resume output:\n%s", want, out)
			}
		}
	})

	t.Run("debug_workflow", func(t *testing.T) {
		out := runBinary(t, filepath.Join(bin, "debug_workflow"))
		if !strings.Contains(out, "faulty instruction") {
			t.Fatalf("debug_workflow did not localise the fault:\n%s", out)
		}
	})

	// -o writes the tables of the run it rides on as CSV: the AerialVision
	// series and per-kernel memory counters of a conv_sample case, and the
	// table each transformer-family workload prints
	t.Run("aerialvision", func(t *testing.T) {
		for _, c := range []struct {
			args   []string
			file   string
			header string
		}{
			{[]string{"-workload", "convsample", "-c", "2", "-k", "2", "-hw", "12"}, "kernel_mem.csv", "kernel,l2_accesses,l2_hits,"},
			{[]string{"-workload", "convsample", "-c", "2", "-k", "2", "-hw", "12"}, "warp_breakdown.csv", "series,0,1,"},
			{[]string{"-workload", "transformer", "-replay"}, "kernel_replay.csv", "kernel,launches,replayed,"},
			{[]string{"-workload", "decode", "-prompt", "2", "-gen", "2"}, "decode_throughput.csv", "mode,iters,tokens,total_cycles,"},
			{[]string{"-workload", "serve", "-requests", "8"}, "serve_latency.csv", "window_end_cycle,completed,p50_cycles,"},
			{[]string{"-workload", "train", "-steps", "2", "-replay"}, "train_loss.csv", "step,loss,cpu_loss,replayed"},
		} {
			dir := filepath.Join(t.TempDir(), "aerial")
			out := runBinary(t, filepath.Join(bin, "gpgpusim"), append(c.args, "-o", dir)...)
			path := filepath.Join(dir, c.file)
			if !strings.Contains(out, "wrote "+path) {
				t.Errorf("gpgpusim %v -o did not report %s:\n%s", c.args, c.file, out)
			}
			csv, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("gpgpusim %v -o did not write %s: %v", c.args, c.file, err)
			}
			if !strings.HasPrefix(string(csv), c.header) {
				t.Errorf("%s header unexpected:\n%s", c.file, csv[:min(len(csv), 200)])
			}
		}
	})
}

// runBinaryExpectError runs a binary that must FAIL, returning its
// combined output and exit code.
func runBinaryExpectError(t *testing.T, path string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(path, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, expected failure\n%s", filepath.Base(path), args, out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v did not run: %v", filepath.Base(path), args, err)
	}
	return string(out), ee.ExitCode()
}

func runBinary(t *testing.T, path string, args ...string) string {
	t.Helper()
	cmd := exec.Command(path, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", filepath.Base(path), args, err, out)
	}
	if len(out) == 0 {
		t.Fatalf("%s produced no output", filepath.Base(path))
	}
	return string(out)
}

// TestQuickstartInProcess exercises the quickstart path through the
// public API: a hand-written kernel in functional then performance mode.
func TestQuickstartInProcess(t *testing.T) {
	for _, perf := range []bool{false, true} {
		ctx := NewContext(BugSet{})
		if _, err := ctx.RegisterModule(smokeSaxpyPTX); err != nil {
			t.Fatal(err)
		}
		if perf {
			eng, err := NewTimingEngine(GTX1050)
			if err != nil {
				t.Fatal(err)
			}
			UseTiming(ctx, eng)
		}
		const n = 256
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(i)
			y[i] = 1
		}
		px, _ := ctx.Malloc(4 * n)
		ctx.MemcpyF32HtoD(px, x)
		py, _ := ctx.Malloc(4 * n)
		ctx.MemcpyF32HtoD(py, y)
		p := NewParams().Ptr(px).Ptr(py).F32(2).U32(n)
		st, err := ctx.Launch("saxpy", Dim3{X: 2}, Dim3{X: 128}, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.WarpInstrs == 0 {
			t.Fatal("no instructions recorded")
		}
		if perf && st.Cycles == 0 {
			t.Fatal("no cycles recorded in performance mode")
		}
		got := ctx.MemcpyF32DtoH(py, n)
		for i, v := range got {
			want := float32(i)*2 + 1
			if v != want {
				t.Fatalf("y[%d] = %v, want %v (perf=%v)", i, v, want, perf)
			}
		}
	}
}

// TestLeNetInProcess runs a tiny LeNet forward pass (1 image) against
// its CPU oracle — the in-process version of the lenet_mnist example.
func TestLeNetInProcess(t *testing.T) {
	model, _, err := NewLeNet(BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	ds := NewMNISTDataset(7)
	images, _ := ds.Batch(1)
	probs, err := model.Forward(images, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 10 {
		t.Fatalf("expected 10 class probabilities, got %d", len(probs))
	}
	var sum float32
	for _, p := range probs {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("probabilities do not sum to 1: %v", sum)
	}
	if got := ctxStatCount(model); got == 0 {
		t.Fatal("no kernels launched for the forward pass")
	}
}

func ctxStatCount(m *LeNet) int { return len(m.Dev.Ctx.KernelStatsLog()) }
