package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
)

// entryFlags returns the names an entry's flag set defines.
func entryFlags(w *workload) map[string]bool {
	fs, _, _ := w.flagSet(io.Discard)
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// TestRegistryMatrix is generated from the registry itself: every flag
// some entry defines is, under every entry that does not define it,
// rejected by the flag package — exit 2, naming the flag — before
// anything runs. No entry can accept a flag and ignore it.
func TestRegistryMatrix(t *testing.T) {
	all := map[string]bool{}
	for i := range workloads {
		for name := range entryFlags(&workloads[i]) {
			all[name] = true
		}
	}
	if len(all) > 36 {
		t.Errorf("the front door has %d distinct flags, want at most 36", len(all))
	}
	cells := 0
	for i := range workloads {
		w := &workloads[i]
		own := entryFlags(w)
		for name := range all {
			if own[name] {
				continue
			}
			cells++
			args := []string{"-workload", w.name, "-" + name, "1"}
			if w.name == "" {
				args = args[2:]
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("gpgpusim %v exited %d, want 2", args, code)
			}
			if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
				t.Errorf("gpgpusim %v: stderr lacks %q:\n%s", args, want, stderr.String())
			}
			if stdout.Len() > 0 {
				t.Errorf("gpgpusim %v ran before rejecting the flag:\n%s", args, stdout.String())
			}
		}
	}
	if cells < 100 {
		t.Errorf("matrix covered only %d (entry, foreign flag) cells", cells)
	}
}

// TestEntriesParseEmptyFlagSet: a bare `-workload NAME` runs with
// defaults, so every entry's flag set must accept it.
func TestEntriesParseEmptyFlagSet(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		var args []string
		if w.name != "" {
			args = []string{"-workload", w.name}
		}
		fs, _, _ := w.flagSet(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Errorf("entry %q rejects %v: %v", w.name, args, err)
		}
		if got := workloadArg(args); got != w.name {
			t.Errorf("workloadArg(%v) = %q, want %q", args, got, w.name)
		}
	}
}

func TestWorkloadArg(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-j", "2", "-workload", "serve", "-replay"}, "serve"},
		{[]string{"--workload=train", "-steps", "2"}, "train"},
		{[]string{"-perf", "file.ptx"}, ""},
		{[]string{"-workload"}, ""},
		{[]string{"--", "-workload", "serve"}, ""},
	} {
		if got := workloadArg(c.args); got != c.want {
			t.Errorf("workloadArg(%v) = %q, want %q", c.args, got, c.want)
		}
	}
}

// TestParseDim: a malformed -grid/-block is an error, not a silently
// different launch shape.
func TestParseDim(t *testing.T) {
	for _, c := range []struct {
		in   string
		want exec.Dim3
		ok   bool
	}{
		{"2", exec.Dim3{X: 2, Y: 1, Z: 1}, true},
		{"2,3", exec.Dim3{X: 2, Y: 3, Z: 1}, true},
		{" 4, 5 ,6", exec.Dim3{X: 4, Y: 5, Z: 6}, true},
		{"abc", exec.Dim3{}, false},
		{"12x8", exec.Dim3{}, false},
		{"2,,1", exec.Dim3{}, false},
		{"", exec.Dim3{}, false},
		{"0", exec.Dim3{}, false},
		{"4,-1", exec.Dim3{}, false},
		{"1,2,3,4", exec.Dim3{}, false},
	} {
		got, err := parseDim(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseDim(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestValueChecks: the checks that sit next to the flags they check
// reject a value or combination the entry could not honour — exit 2,
// naming the flag, before anything runs.
func TestValueChecks(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-workload serve -rate 10 -trace x.trace", "-rate and -trace are mutually exclusive"},
		{"-workload serve -requests 3 -trace x.trace", "-requests and -trace are mutually exclusive"},
		{"-workload serve -decode -trace x.trace", "-decode and -trace are mutually exclusive"},
		{"-workload serve -prompt 3", "-prompt/-gen only apply with -decode"},
		{"-workload serve -replay-resample 2", "-replay-resample only applies with -replay"},
		{"-workload train -replay-resample 2", "-replay-resample only applies with -replay"},
		{"-workload transformer -replay-resample 2", "-replay-resample only applies with -replay"},
		{"-workload train -devices 0", "-devices must be >= 1"},
		{"-workload transformer -devices -3", "-devices must be >= 1"},
		{"-workload transformer -devices 2 -streams 2", "-streams only applies to single-device runs"},
		{"-workload transformer -devices 2 -replay", "-replay with -devices only applies to -workload train"},
		{"-workload convsample -sweep -algo fft", "-algo selects one case"},
		// counts below 1 and a rate that is not positive: these panicked in
		// make (-images -1, -requests -5), ran to cycle 2^63 (-rate 0), died
		// on a trace or allocator error (-rate -1, -images 0, -c 0), ran some
		// other shape than the one typed (-streams, -steps, -prompt, -gen) or
		// printed nothing (-plot foo)
		{"-workload mnist -images -1", "-images must be >= 1, got -1"},
		{"-workload mnist -images 0", "-images must be >= 1"},
		{"-workload serve -requests -5", "-requests must be >= 1, got -5"},
		{"-workload serve -rate 0", "-rate must be > 0"},
		{"-workload serve -rate -1", "-rate must be > 0"},
		{"-workload serve -rate NaN", "-rate must be > 0"},
		{"-workload serve -decode -gen 0", "-gen must be >= 1"},
		{"-workload transformer -streams 0", "-streams must be >= 1"},
		{"-workload transformer -streams -2", "-streams must be >= 1"},
		{"-workload decode -streams 0", "-streams must be >= 1"},
		{"-workload decode -streams -2", "-streams must be >= 1"},
		{"-workload decode -prompt 0", "-prompt must be >= 1"},
		{"-workload decode -gen -1", "-gen must be >= 1"},
		{"-workload train -steps 0", "-steps must be >= 1"},
		{"-workload train -steps -3", "-steps must be >= 1"},
		{"-workload convsample -plot foo", `-plot: unknown plot "foo"`},
		{"-workload convsample -c 0", "-c must be >= 1"},
		{"-workload convsample -k 0", "-k must be >= 1"},
		{"-workload convsample -hw -28", "-hw must be >= 1"},
		{"-perf -streams 0 file.ptx", "-streams must be >= 1"},
		{"-workload debug -entries 0", "-entries must be >= 1"},
		{"-workload debug -entries -1", "-entries must be >= 1"}, // reached make() in the log replay and panicked
		{"-workload debug -break mul", `-break: unknown opcode "mul"`},
		{"-workload debug -j 2", "-j does not apply to -workload debug"},
		{"-workload membound extra", `unexpected argument "extra"`},
		{"-workload membound -workload camping", `-workload names both "membound" and "camping"`},
		{"-streams 2 file.ptx", "-streams needs -perf"},
		{"-j 2 file.ptx", "-j needs -perf"},
		{"-grid abc file.ptx", "-grid"},
		{"-block 12x8 file.ptx", "-block"},
		{"-perf", "usage: gpgpusim [flags] file.ptx"},
		{"-workload nosuch", `unknown workload "nosuch"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != 2 {
			t.Errorf("gpgpusim %s exited %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("gpgpusim %s: stderr lacks %q:\n%s", c.args, c.want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("gpgpusim %s ran before rejecting:\n%s", c.args, stdout.String())
		}
	}
}

// TestDebugBreakDivTerminates: with div.u32 broken the regression suite's
// GEMM computes a k-tile count of 0xffffffff and never returns; the
// interpreter's runaway guard ends it (about ten seconds; it used to hang,
// which would now show as the package's test timeout), step 1 is reported
// as skipped, and the flow still localises a div.
func TestDebugBreakDivTerminates(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a CTA to the runaway ceiling; skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-workload debug -break div"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"(skipped: the regression suite fails on the suspect simulator too:",
		"kernel sgemm_tiled cta 0 warp 0 still running after",
		"first incorrectly executing instruction: pc 10: div.u32",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestCSVHeaders: the table each transformer-family workload prints is
// also what -o writes, under the file name and header its readers expect
// (the conv_sample files are pinned byte for byte by TestCSVGoldens).
func TestCSVHeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads; skipped in -short mode")
	}
	for _, c := range []struct {
		args, file, header string
	}{
		{"-workload transformer -replay", "kernel_replay.csv", "kernel,launches,replayed,"},
		{"-workload decode -prompt 2 -gen 2", "decode_throughput.csv", "mode,iters,tokens,total_cycles,"},
		{"-workload serve -requests 8", "serve_latency.csv", "window_end_cycle,completed,p50_cycles,"},
		{"-workload train -steps 2 -replay", "train_loss.csv", "step,loss,cpu_loss,replayed"},
	} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run(append(strings.Fields(c.args), "-o", dir), &stdout, &stderr); code != 0 {
			t.Fatalf("gpgpusim %s -o: exit %d\n%s", c.args, code, stderr.String())
		}
		path := filepath.Join(dir, c.file)
		if !strings.Contains(stdout.String(), "wrote "+path+"\n") {
			t.Errorf("gpgpusim %s -o did not report %s:\n%s", c.args, c.file, stdout.String())
		}
		csv, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("gpgpusim %s -o did not write %s: %v", c.args, c.file, err)
		}
		if !strings.HasPrefix(string(csv), c.header) {
			t.Errorf("%s starts %q, want the header %q", c.file, csv[:min(len(csv), 80)], c.header)
		}
	}
}

// TestReplayCoverageLine: the coverage line an entry prints is
// 100·hits/(hits+misses+resamples) of the counts on the same line —
// resampled launches count against coverage. Each row resamples.
func TestReplayCoverageLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a replayed serve; skipped in -short mode")
	}
	line := regexp.MustCompile(`replay coverage ([0-9.]+)%: (\d+) hits, (\d+) misses, (\d+) resamples`)
	for _, args := range []string{
		"-workload serve -replay -replay-resample 2 -requests 16",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
			t.Fatalf("gpgpusim %s: exit %d\n%s", args, code, stderr.String())
		}
		m := line.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("gpgpusim %s printed no replay coverage line:\n%s", args, stdout.String())
		}
		var n [3]float64
		for i := range n {
			n[i], _ = strconv.ParseFloat(m[i+2], 64)
		}
		if n[2] == 0 {
			t.Errorf("gpgpusim %s: no resamples, so the row checks nothing: %s", args, m[0])
		}
		if want := fmt.Sprintf("%.1f", 100*n[0]/(n[0]+n[1]+n[2])); m[1] != want {
			t.Errorf("gpgpusim %s: %s, want coverage %s%%", args, m[0], want)
		}
	}
}

// TestJZeroMeansAllCPUs: -j 0 is resolved to runtime.NumCPU() at the
// front door, so it reaches a multi-device run as every CPU rather than
// as the libraries' zero value, one worker.
func TestJZeroMeansAllCPUs(t *testing.T) {
	if runtime.NumCPU() == 1 {
		t.Skip("one CPU: all CPUs and one worker are the same count")
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields("-workload train -devices 2 -steps 1 -j 0"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if want := fmt.Sprintf(", %d host workers\n", runtime.NumCPU()); !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
	}
}

// TestProfileFlags: -cpuprofile and -memprofile are the front door's, so
// a run of any entry writes both profiles, non-empty and gzip-framed as
// pprof writes them.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "camping", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a gzip-framed pprof profile", filepath.Base(path), len(b))
		}
	}
}
