package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/*.golden from the current binary at -j 1")

// TestCLIGoldens pins the stdout of every -workload family byte for
// byte, at -j 1 and -j 2: the text is what users and the smoke test
// read, and every number in it is a modelled one, so a refactor of the
// drivers or the table renderer must leave it untouched. Intentional
// changes regenerate with `go test ./cmd/gpgpusim -run CLIGoldens
// -update` (the flag goes AFTER the package path). The binary runs from
// the repository root so the trace path prints as a user would type it.
func TestCLIGoldens(t *testing.T) {
	bin := buildCLI(t)
	saxpy := []string{"-grid", "2", "-block", "128", filepath.Join("cmd", "gpgpusim", "testdata", "saxpy.ptx")}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"transformer_streams2", []string{"-workload", "transformer", "-streams", "2"}},
		{"transformer_replay", []string{"-workload", "transformer", "-replay"}},
		{"decode_streams2", []string{"-workload", "decode", "-streams", "2", "-prompt", "3", "-gen", "3"}},
		{"train_replay", []string{"-workload", "train", "-steps", "3", "-replay"}},
		{"train_devices2", []string{"-workload", "train", "-devices", "2", "-steps", "2"}},
		{"transformer_devices2", []string{"-workload", "transformer", "-devices", "2"}},
		{"serve_diurnal", []string{"-workload", "serve", "-trace", "internal/serve/testdata/diurnal.trace"}},
		{"membound", []string{"-workload", "membound"}},
		// recorded from mnistsim, convsample and examples/bank_camping
		// before they were folded into the registry
		{"mnist_images1", []string{"-workload", "mnist", "-images", "1"}},
		{"convsample_small", []string{"-workload", "convsample", "-c", "2", "-k", "2", "-hw", "12"}},
		{"convsample_sweep_small", []string{"-workload", "convsample", "-sweep", "-c", "2", "-k", "2", "-hw", "12"}},
		{"camping", []string{"-workload", "camping"}},
		// the PTX-file mode, recorded before its single-launch path
		// became the one-lane case of the stream run
		{"ptx_functional", append([]string{"-args", "buf256,buf256,f2,i256"}, saxpy...)},
		{"ptx_perf", append([]string{"-perf", "-args", "buf256,buf256,f2,i256"}, saxpy...)},
		{"ptx_perf_streams3", append([]string{"-perf", "-streams", "3", "-dump", "4", "-args", "buf256,buf256,f2,i256"}, saxpy...)},
		// the paper's two tool flows, recorded from cmd/debugtool and
		// examples/checkpoint_resume before they became registry entries
		{"debug_rem", []string{"-workload", "debug", "-break", "rem"}},
		{"debug_brev", []string{"-workload", "debug", "-break", "brev"}},
		{"debug_fma", []string{"-workload", "debug", "-break", "fma"}},
		{"checkpoint", []string{"-workload", "checkpoint"}},
	} {
		golden := filepath.Join("testdata", c.name+".golden")
		for _, j := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/j%d", c.name, j), func(t *testing.T) {
				args := append([]string{"-j", fmt.Sprint(j)}, c.args...)
				if c.name == "ptx_functional" || strings.HasPrefix(c.name, "debug_") {
					args = c.args // no detailed model for -j to step
				}
				cmd := exec.Command(bin, args...)
				cmd.Dir = filepath.Join("..", "..")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				got, err := cmd.Output()
				if err != nil {
					t.Fatalf("gpgpusim %v: %v\n%s", c.args, err, stderr.Bytes())
				}
				// the multi-GPU headers print the -j value itself
				got = bytes.Replace(got, []byte(fmt.Sprintf("%d host workers", j)), []byte("1 host workers"), 1)
				if *update && j == 1 {
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("stdout of gpgpusim -j %d %v differs from %s:\n--- got\n%s--- want\n%s", j, c.args, golden, got, want)
				}
			})
		}
	}
}

// buildCLI builds the binary into a temporary directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short mode")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "gpgpusim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCSVGoldens pins the files -o writes for the conv_sample case
// aerialvision exported before it was folded into the registry (fwd/fft,
// default shape): the same 26 files, byte for byte, at -j 1 and -j 2.
func TestCSVGoldens(t *testing.T) {
	bin := buildCLI(t)
	for _, j := range []int{1, 2} {
		t.Run(fmt.Sprintf("convsample_fft/j%d", j), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "csv")
			cmd := exec.Command(bin, "-j", fmt.Sprint(j), "-workload", "convsample", "-algo", "fft", "-o", out)
			if msg, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v: %v\n%s", cmd.Args, err, msg)
			}
			compareCSVDir(t, out, filepath.Join("testdata", "convsample_fft_csv"))
		})
	}
}

// compareCSVDir checks that dir holds exactly the files golden/MANIFEST
// lists (sha256, size, name — one per line, sorted by name), byte for
// byte, and that kernel_mem.csv equals the copy kept next to it.
func compareCSVDir(t *testing.T, dir, golden string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range entries { // ReadDir sorts by name
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %d  %s\n", sha256.Sum256(b), len(b), e.Name())
	}
	want, err := os.ReadFile(filepath.Join(golden, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("CSV files differ from %s/MANIFEST:\n--- got\n%s--- want\n%s", golden, got.Bytes(), want)
	}
	gotMem, _ := os.ReadFile(filepath.Join(dir, "kernel_mem.csv"))
	wantMem, _ := os.ReadFile(filepath.Join(golden, "kernel_mem.csv"))
	if !bytes.Equal(gotMem, wantMem) {
		t.Errorf("kernel_mem.csv:\n--- got\n%s--- want\n%s", gotMem, wantMem)
	}
}
