package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
	} {
		golden := filepath.Join("testdata", c.name+".golden")
		for _, j := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/j%d", c.name, j), func(t *testing.T) {
				cmd := exec.Command(bin, append([]string{"-j", fmt.Sprint(j)}, c.args...)...)
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
