package aerial

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/multigpu"
	"repro/internal/serve"
)

func TestHeatMapRendering(t *testing.T) {
	var b strings.Builder
	rows := [][]float64{
		{0, 0.5, 1.0},
		{1.0, 0, 0.5},
	}
	HeatMap(&b, "test", rows, func(i int) string { return "row" }, 100)
	out := b.String()
	if !strings.Contains(out, "== test ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "@") {
		t.Error("max value should render as the brightest shade")
	}
	if strings.Count(out, "|") != 4 {
		t.Errorf("expected 2 framed rows:\n%s", out)
	}
}

func TestHeatMapDownsamples(t *testing.T) {
	var b strings.Builder
	wide := make([]float64, 1000)
	for i := range wide {
		wide[i] = float64(i % 7)
	}
	HeatMap(&b, "wide", [][]float64{wide}, func(int) string { return "r" }, 10)
	for _, line := range strings.Split(b.String(), "\n") {
		if len(line) > 140 {
			t.Fatalf("row not downsampled to terminal width: %d chars", len(line))
		}
	}
}

func TestHeatMapEmpty(t *testing.T) {
	var b strings.Builder
	HeatMap(&b, "empty", nil, func(int) string { return "" }, 1)
	if !strings.Contains(b.String(), "no data") {
		t.Error("empty input should say so")
	}
}

func TestCSV(t *testing.T) {
	var b strings.Builder
	err := CSV(&b, []string{"a", "b"}, [][]float64{{1, 2, 3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "series,0,1,2" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "a,1,2,3" {
		t.Errorf("row a = %q", lines[1])
	}
	if lines[2] != "b,4,0,0" { // short rows padded with zeros
		t.Errorf("row b = %q", lines[2])
	}
}

func TestKernelMemTable(t *testing.T) {
	var b strings.Builder
	KernelMemTable("mem", []cudart.KernelStats{
		{Name: "saxpy", MemCounters: cudart.MemCounters{L2Accesses: 100, L2Hits: 25, DRAMAccesses: 75, DRAMRowHits: 30, IngressStallCycles: 12}},
		{Name: "cold"}, // zero traffic: rates must render n/a, not NaN
	}).WriteText(&b)
	out := b.String()
	for _, want := range []string{"saxpy", "25.0", "40.0", "12", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in summary:\n%s", want, out)
		}
	}
}

// TestKernelMemTableCSV pins kernel_mem.csv's form: raw counts, the
// launch id in the kernel column, no rates.
func TestKernelMemTableCSV(t *testing.T) {
	var b strings.Builder
	tab := KernelMemTable("", []cudart.KernelStats{
		{Name: "saxpy", LaunchID: 3, MemCounters: cudart.MemCounters{L2Accesses: 100, L2Hits: 25, DRAMAccesses: 75, DRAMRowHits: 30, IngressStallCycles: 12}},
	})
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "kernel,l2_accesses,l2_hits,l2_misses,dram_accesses,dram_rowhits,mem_stall_cycles\nsaxpy#3,100,25,75,75,30,12\n"
	if b.String() != want || tab.File != "kernel_mem.csv" {
		t.Errorf("%s:\n%s\nwant:\n%s", tab.File, b.String(), want)
	}
}

// TestReport: a table is printed when it has a title and exported when
// it names a file; series are export-only; WriteCSV writes what was kept
// and reports each path.
func TestReport(t *testing.T) {
	var text strings.Builder
	rep := &Report{W: &text}
	rep.Printf("summary %d\n", 7)
	rep.Table(KernelReplayTable("shown", []core.KernelAgg{{Name: "k", Launches: 2}}))
	rep.Table(CSVTable("cells.csv", []string{"a", "b"}, [][]string{{"1", "x"}}))
	rep.Series("ipc.csv", []string{"ipc"}, [][]float64{{0.5, 1}})
	if got := text.String(); !strings.HasPrefix(got, "summary 7\n== shown ==\n") || strings.Contains(got, "cells") {
		t.Errorf("text form:\n%s", got)
	}

	dir := filepath.Join(t.TempDir(), "out")
	text.Reset()
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"kernel_replay.csv": "kernel,launches,replayed,cycles,replayed_cycles\nk,2,0,0,0\n",
		"cells.csv":         "a,b\n1,x\n",
		"ipc.csv":           "series,0,1\nipc,0.5,1\n",
	} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != want {
			t.Errorf("%s = %q (%v), want %q", name, got, err, want)
		}
		if !strings.Contains(text.String(), "wrote "+filepath.Join(dir, name)+"\n") {
			t.Errorf("%s not reported:\n%s", name, text.String())
		}
	}
}

func TestKernelReplayTable(t *testing.T) {
	var b strings.Builder
	tab := KernelReplayTable("replay", []core.KernelAgg{
		{Name: "matmul", Launches: 10, Replayed: 9, Cycles: 1000, ReplayedCycles: 880},
		{Name: "once", Launches: 1}, // never replayed: rate must render, no NaN
	})
	tab.WriteText(&b)
	out := b.String()
	for _, want := range []string{"matmul", "90.0", "880", "once", "0.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in summary:\n%s", want, out)
		}
	}

	b.Reset()
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "kernel,launches,replayed,cycles,replayed_cycles" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "matmul,10,9,1000,880" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestDecodeThroughputTable(t *testing.T) {
	var b strings.Builder
	// 5 iterations x 2 sequences x 6 tokens = 60 tokens per run
	run := func(cycles, hits, misses uint64) *core.DecodeReplayResult {
		r := &core.DecodeReplayResult{Seqs: 2, NewTokens: 6}
		r.Iters, r.TotalCycles = 5, cycles
		r.Stats.ReplayHits, r.Stats.ReplayMisses = hits, misses
		return r
	}
	tab := DecodeThroughputTable("decode throughput", []string{"detailed", "hybrid"},
		[]*core.DecodeReplayResult{run(1_500_000, 0, 0), run(1_480_000, 4, 1)})
	tab.WriteText(&b)
	out := b.String()
	for _, want := range []string{"decode throughput", "tok/Mcycle", "detailed", "hybrid", "40.54", "80.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in summary:\n%s", want, out)
		}
	}

	b.Reset()
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "mode,iters,tokens,total_cycles,tokens_per_mcycle,coverage" {
		t.Errorf("header = %q", lines[0])
	}
	// tokens/Mcycle is derived from the run now (60 / 1.48), no longer a
	// free-standing row field
	if lines[2] != "hybrid,5,60,1480000,40.5405,0.8" {
		t.Errorf("row = %q", lines[2])
	}
}

func TestServeLatencyTable(t *testing.T) {
	var b strings.Builder
	tab := ServeLatencyTable("serving latency", []serve.LatencyBucket{
		{EndCycle: 1000, Completed: 3, P50: 400, P99: 900, P999: 950},
		{EndCycle: 2000, Completed: 0}, // empty window: dashes, not zeros
	})
	tab.WriteText(&b)
	out := b.String()
	for _, want := range []string{"serving latency", "window_end", "p99.9_cy", "400", "900", "950", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in summary:\n%s", want, out)
		}
	}

	b.Reset()
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "window_end_cycle,completed,p50_cycles,p99_cycles,p999_cycles" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1000,3,400,900,950" {
		t.Errorf("row = %q", lines[1])
	}
	if lines[2] != "2000,0,0,0,0" {
		t.Errorf("empty-window row = %q", lines[2])
	}
}

// TestTableTextLayout pins the text form byte for byte on the two tables
// that mix left-aligned, formatted and text-only columns.
func TestTableTextLayout(t *testing.T) {
	var b strings.Builder
	DeviceTable("per-device engine counters", []multigpu.DeviceStats{
		{Device: 1, Cycles: 340351, Instructions: 1047156, L2Accesses: 12855, DRAMAccesses: 1973, FastForwardedCycles: 142258, Launches: 324},
	}).WriteText(&b)
	res := &core.TrainResult{Losses: []float32{6.5, 4.25}, CPULosses: []float32{6.5, 4.5}, StepReplayHits: []uint64{0, 7}}
	tab := TrainLossTable("training loss", res)
	tab.WriteText(&b)
	want := "== per-device engine counters ==\n" +
		"device         cycles         instrs     l2_acc       dram   barrier_cy  launches\n" +
		"gpu1           340351        1047156      12855       1973       142258       324\n" +
		"== training loss ==\n" +
		"  step         loss     cpu_loss     |diff| replayed\n" +
		"     0      6.50000      6.50000          0         \n" +
		"     1      4.25000      4.50000       0.25      yes\n"
	if b.String() != want {
		t.Errorf("text form:\n%q\nwant:\n%q", b.String(), want)
	}
	b.Reset()
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "step,loss,cpu_loss,replayed\n0,6.5,6.5,0\n1,4.25,4.5,1\n"; b.String() != want {
		t.Errorf("CSV form = %q, want %q", b.String(), want)
	}
}

func TestStackedSummarySkipsZeroRows(t *testing.T) {
	var b strings.Builder
	StackedSummary(&b, "warp", []string{"used", "empty"},
		[][]float64{{0.5, 0.5}, {0, 0}})
	out := b.String()
	if !strings.Contains(out, "used") {
		t.Error("non-zero row missing")
	}
	if strings.Contains(out, "empty") {
		t.Error("all-zero row should be skipped")
	}
}
