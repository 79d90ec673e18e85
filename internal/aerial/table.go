package aerial

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/multigpu"
	"repro/internal/serve"
)

// Column is one column of a Table. It appears in the text form when Head
// is set and in the CSV form when CSVHead is set; each form formats the
// row's cell value with its own verb.
type Column struct {
	Head  string // text header
	Width int    // text width; negative left-aligns
	Verb  string // text format of the cell value

	CSVHead string
	CSVVerb string
}

// Table is a titled table of per-kernel, per-device, per-window or
// per-step figures that renders as aligned text (the CLI summaries) and
// as CSV (the CLI's -o export). One constructor below per table the CLI
// shows; each names the file its CSV form goes to. A Report prints a
// table that has a title and exports one that has a file.
type Table struct {
	Title   string
	File    string
	Columns []Column
	Rows    [][]any // one value per column
}

// line renders the header (row == nil) or one row in the text or the CSV
// form, newline included.
func (t *Table) line(row []any, csv bool) string {
	var parts []string
	sep := " "
	if csv {
		sep = ","
	}
	for i, c := range t.Columns {
		head, verb := c.Head, c.Verb
		if csv {
			head, verb = c.CSVHead, c.CSVVerb
		}
		if head == "" {
			continue
		}
		cell := head
		if row != nil {
			cell = fmt.Sprintf(verb, row[i])
		}
		if !csv {
			cell = fmt.Sprintf("%*s", c.Width, cell)
		}
		parts = append(parts, cell)
	}
	return strings.Join(parts, sep) + "\n"
}

// write renders the header and every row in one form.
func (t *Table) write(w io.Writer, csv bool) error {
	var b strings.Builder
	b.WriteString(t.line(nil, csv))
	for _, r := range t.Rows {
		b.WriteString(t.line(r, csv))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText renders the title, the header and every row as
// space-separated fixed-width columns.
func (t *Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	_ = t.write(w, false) // diagnostics to a terminal, like every other print
}

// WriteCSV renders the CSV header and every row.
func (t *Table) WriteCSV(w io.Writer) error { return t.write(w, true) }

// CSVTable is an export-only table of preformatted cells: the CSV form
// of a table the CLI prints with stats.Table from the same rows.
func CSVTable(file string, heads []string, rows [][]string) *Table {
	t := &Table{File: file}
	for _, h := range heads {
		t.Columns = append(t.Columns, Column{CSVHead: h, CSVVerb: "%s"})
	}
	for _, r := range rows {
		cells := make([]any, len(r))
		for i, c := range r {
			cells[i] = c
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// pct formats n/d as a percentage, "n/a" when d is zero.
func pct(n, d uint64) string {
	if d == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", 100*float64(n)/float64(d))
}

// KernelMemTable is the per-launch memory counters the paper's
// memory-behavior study revolves around: L2 hit rate, DRAM row-buffer
// locality, and the cycles each launch's segments spent stalled on
// partition ingress/port/MSHR reservations. Its CSV form, with raw
// counts and launch ids instead of rates, is kernel_mem.csv.
func KernelMemTable(title string, launches []cudart.KernelStats) *Table {
	t := &Table{Title: title, File: "kernel_mem.csv", Columns: []Column{
		{Head: "kernel", Width: -24, Verb: "%s"},
		{CSVHead: "kernel", CSVVerb: "%s"},
		{Head: "launches", Width: 8, Verb: "%d"},
		{Head: "l2_acc", Width: 10, Verb: "%d", CSVHead: "l2_accesses", CSVVerb: "%d"},
		{Head: "l2_hit%", Width: 8, Verb: "%s"},
		{CSVHead: "l2_hits", CSVVerb: "%d"},
		{CSVHead: "l2_misses", CSVVerb: "%d"},
		{Head: "dram", Width: 10, Verb: "%d", CSVHead: "dram_accesses", CSVVerb: "%d"},
		{Head: "rowhit%", Width: 8, Verb: "%s"},
		{CSVHead: "dram_rowhits", CSVVerb: "%d"},
		{Head: "mem_stall_cy", Width: 12, Verb: "%d", CSVHead: "mem_stall_cycles", CSVVerb: "%d"},
	}}
	for _, k := range launches {
		t.Rows = append(t.Rows, []any{
			k.Name, fmt.Sprintf("%s#%d", k.Name, k.LaunchID), 1,
			k.L2Accesses, pct(k.L2Hits, k.L2Accesses), k.L2Hits, k.DRAMAccesses, // every L2 miss goes to DRAM
			k.DRAMAccesses, pct(k.DRAMRowHits, k.DRAMAccesses), k.DRAMRowHits, k.IngressStallCycles,
		})
	}
	return t
}

// KernelReplayTable is the per-kernel replay coverage of a hybrid run:
// which kernels the cache absorbed and which still pay detailed
// simulation (the re-sampling budget should go where replayed% is low).
// Its CSV form is kernel_replay.csv.
func KernelReplayTable(title string, kernels []core.KernelAgg) *Table {
	t := &Table{Title: title, File: "kernel_replay.csv", Columns: []Column{
		{Head: "kernel", Width: -24, Verb: "%s", CSVHead: "kernel", CSVVerb: "%s"},
		{Head: "launches", Width: 8, Verb: "%d", CSVHead: "launches", CSVVerb: "%d"},
		{Head: "replayed", Width: 9, Verb: "%d", CSVHead: "replayed", CSVVerb: "%d"},
		{Head: "replayed%", Width: 10, Verb: "%s"},
		{Head: "cycles", Width: 12, Verb: "%d", CSVHead: "cycles", CSVVerb: "%d"},
		{Head: "replayed_cy", Width: 12, Verb: "%d", CSVHead: "replayed_cycles", CSVVerb: "%d"},
	}}
	for _, k := range kernels {
		t.Rows = append(t.Rows, []any{
			k.Name, k.Launches, k.Replayed, pct(uint64(k.Replayed), uint64(k.Launches)),
			k.Cycles, k.ReplayedCycles,
		})
	}
	return t
}

// DeviceTable is the per-device engine counters of a multi-GPU node run:
// every device ends at the same barrier cycle, so the interesting
// columns are the per-rank work split and how many of each rank's cycles
// were bridged waiting at collectives. Its CSV form is devices.csv.
func DeviceTable(title string, devices []multigpu.DeviceStats) *Table {
	t := &Table{Title: title, File: "devices.csv", Columns: []Column{
		{Head: "device", Width: -8, Verb: "gpu%d", CSVHead: "device", CSVVerb: "%d"},
		{Head: "cycles", Width: 12, Verb: "%d", CSVHead: "cycles", CSVVerb: "%d"},
		{Head: "instrs", Width: 14, Verb: "%d", CSVHead: "instructions", CSVVerb: "%d"},
		{Head: "l2_acc", Width: 10, Verb: "%d", CSVHead: "l2_accesses", CSVVerb: "%d"},
		{Head: "dram", Width: 10, Verb: "%d", CSVHead: "dram_accesses", CSVVerb: "%d"},
		{Head: "barrier_cy", Width: 12, Verb: "%d", CSVHead: "barrier_cycles", CSVVerb: "%d"},
		{Head: "launches", Width: 9, Verb: "%d", CSVHead: "launches", CSVVerb: "%d"},
	}}
	for _, d := range devices {
		t.Rows = append(t.Rows, []any{
			d.Device, d.Cycles, d.Instructions, d.L2Accesses, d.DRAMAccesses,
			d.FastForwardedCycles, d.Launches,
		})
	}
	return t
}

// DecodeThroughputTable compares simulation modes on a repeated
// KV-cached greedy-decode batch: what the steady-state decode loop costs
// in modelled cycles and how much of it the replay cache absorbs. Its
// CSV form is decode_throughput.csv. modes[i] names runs[i].
func DecodeThroughputTable(title string, modes []string, runs []*core.DecodeReplayResult) *Table {
	t := &Table{Title: title, File: "decode_throughput.csv", Columns: []Column{
		{Head: "mode", Width: -10, Verb: "%s", CSVHead: "mode", CSVVerb: "%s"},
		{Head: "iters", Width: 6, Verb: "%d", CSVHead: "iters", CSVVerb: "%d"},
		{Head: "tokens", Width: 8, Verb: "%d", CSVHead: "tokens", CSVVerb: "%d"},
		{Head: "total_cycles", Width: 14, Verb: "%d", CSVHead: "total_cycles", CSVVerb: "%d"},
		{Head: "tok/Mcycle", Width: 12, Verb: "%.2f", CSVHead: "tokens_per_mcycle", CSVVerb: "%.6g"},
		{Head: "coverage%", Width: 10, Verb: "%.1f"},
		{CSVHead: "coverage", CSVVerb: "%.6g"},
	}}
	for i, r := range runs {
		cov := r.Stats.ReplayCoverage()
		t.Rows = append(t.Rows, []any{
			modes[i], r.Iters, r.Seqs * r.NewTokens * r.Iters, r.TotalCycles,
			r.TokensPerMcycle(), 100 * cov, cov,
		})
	}
	return t
}

// ServeLatencyTable is latency percentiles over serving time — the
// aerial view of a saturation transient: watch p99 climb window by
// window once the open-loop queue outruns the batch. Empty windows show
// dashes in text and zeros in serve_latency.csv, its CSV form.
func ServeLatencyTable(title string, windows []serve.LatencyBucket) *Table {
	t := &Table{Title: title, File: "serve_latency.csv", Columns: []Column{
		{Head: "window_end", Width: 12, Verb: "%d", CSVHead: "window_end_cycle", CSVVerb: "%d"},
		{Head: "completed", Width: 10, Verb: "%d", CSVHead: "completed", CSVVerb: "%d"},
		{Head: "p50_cy", Width: 12, Verb: "%s"},
		{Head: "p99_cy", Width: 12, Verb: "%s"},
		{Head: "p99.9_cy", Width: 12, Verb: "%s"},
		{CSVHead: "p50_cycles", CSVVerb: "%.6g"},
		{CSVHead: "p99_cycles", CSVVerb: "%.6g"},
		{CSVHead: "p999_cycles", CSVVerb: "%.6g"},
	}}
	for _, b := range windows {
		text := func(v float64) string {
			if b.Completed == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f", v)
		}
		t.Rows = append(t.Rows, []any{
			b.EndCycle, b.Completed, text(b.P50), text(b.P99), text(b.P999),
			b.P50, b.P99, b.P999,
		})
	}
	return t
}

// TrainLossTable is the loss curve of a training run: the device loss
// next to the CPU mirror's, their gap, and whether the step retired (at
// least partly) from the replay cache. Its CSV form is train_loss.csv.
func TrainLossTable(title string, res *core.TrainResult) *Table {
	t := &Table{Title: title, File: "train_loss.csv", Columns: []Column{
		{Head: "step", Width: 6, Verb: "%d", CSVHead: "step", CSVVerb: "%d"},
		{Head: "loss", Width: 12, Verb: "%.5f", CSVHead: "loss", CSVVerb: "%.6g"},
		{Head: "cpu_loss", Width: 12, Verb: "%.5f", CSVHead: "cpu_loss", CSVVerb: "%.6g"},
		{Head: "|diff|", Width: 10, Verb: "%.2g"},
		{Head: "replayed", Width: 8, Verb: "%s"},
		{CSVHead: "replayed", CSVVerb: "%d"},
	}}
	for i := range res.Losses {
		loss, cpu := float64(res.Losses[i]), float64(res.CPULosses[i])
		d := loss - cpu
		if d < 0 {
			d = -d
		}
		mark, flag := "", 0
		if res.StepReplayHits[i] > 0 {
			mark, flag = "yes", 1
		}
		t.Rows = append(t.Rows, []any{i, loss, cpu, d, mark, flag})
	}
	return t
}
