package gpgpusim

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// saxpyPTX is the hand-written kernel the PTX-file goldens launch.
var saxpyPTX = filepath.Join("cmd", "gpgpusim", "testdata", "saxpy.ptx")

// TestMainPackagesSmoke builds the two main packages — the front door and
// the one library-API example — and runs them as processes. The front
// door's command lines and goldens are cmd/gpgpusim's TestCLIGoldens',
// which runs the built binary; what this adds is that the serve entry
// runs and prints, the example prints its golden, and a rejected command
// line exits 2. The -o files are not re-checked here: TestCSVGoldens
// runs the built binary with -o and compares all of them. The subtest
// names are the ones the suite has always had; where a binary has since
// been folded into the registry the row runs the entry that replaced it.
func TestMainPackagesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(os.PathSeparator), "./cmd/...", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building main packages failed: %v\n%s", err, out)
	}
	gpgpusim := filepath.Join(bin, "gpgpusim")

	t.Run("gpgpusim_workload_serve", func(t *testing.T) {
		t.Parallel()
		runBinary(t, gpgpusim, "-workload", "serve", "-requests", "8")
	})

	// the one library-API example: two modelled cycle counts and their ratio
	t.Run("concurrent_streams", func(t *testing.T) {
		t.Parallel()
		sameAsGolden(t, runBinary(t, filepath.Join(bin, "concurrent_streams")), filepath.Join("testdata", "concurrent_streams.golden"))
	})

	// what only a process can show: a rejected command line is exit status
	// 2 with the reason on stderr and nothing on stdout
	t.Run("gpgpusim_invalid_flag_combos", func(t *testing.T) {
		t.Parallel()
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"-workload", "decode", "-steps", "2"}, "flag provided but not defined: -steps"},
			{[]string{"-workload", "train", "-devices", "0"}, "-devices must be >= 1"},
			{[]string{"-workload", "debug", "-entries", "-1"}, "-entries must be >= 1"},
			{[]string{"-grid", "abc", saxpyPTX}, "-grid"},
		} {
			cmd := exec.Command(gpgpusim, c.args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("gpgpusim %v: %v, want exit status 2", c.args, err)
			}
			if len(stdout) > 0 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("gpgpusim %v: stdout %q, stderr %q; want no stdout and %q on stderr", c.args, stdout, stderr.String(), c.want)
			}
		}
	})
}

// runBinary runs a binary that must succeed and print something, and
// returns its stdout.
func runBinary(t *testing.T, path string, args ...string) string {
	t.Helper()
	cmd := exec.Command(path, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", filepath.Base(path), args, err, stderr.String())
	}
	if len(out) == 0 {
		t.Fatalf("%s %v printed nothing", filepath.Base(path), args)
	}
	return string(out)
}

func sameAsGolden(t *testing.T, got, golden string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestQuickstartInProcess exercises the library door the way a program
// would: the hand-written saxpy kernel in functional then performance
// mode, results checked element by element.
func TestQuickstartInProcess(t *testing.T) {
	src, err := os.ReadFile(saxpyPTX)
	if err != nil {
		t.Fatal(err)
	}
	for _, perf := range []bool{false, true} {
		ctx := NewContext(BugSet{})
		if _, err := ctx.RegisterModule(string(src)); err != nil {
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
