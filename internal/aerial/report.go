package aerial

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/timing"
)

// Report is what one workload run measured. Text — summary lines,
// tables, plots — goes to W as the run produces it; every table and time
// series that names a CSV file is kept, so WriteCSV exports the numbers
// the text showed.
type Report struct {
	W     io.Writer
	files []reportFile
}

type reportFile struct {
	name  string
	write func(io.Writer) error
}

// Printf writes a summary line.
func (r *Report) Printf(format string, a ...any) { fmt.Fprintf(r.W, format, a...) }

// Table prints t when it has a title and keeps it for export when it
// names a file.
func (r *Report) Table(t *Table) {
	if t.Title != "" {
		t.WriteText(r.W)
	}
	if t.File != "" {
		r.files = append(r.files, reportFile{t.File, t.WriteCSV})
	}
}

// Series keeps named per-interval rows for export as file.
func (r *Report) Series(file string, names []string, rows [][]float64) {
	r.files = append(r.files, reportFile{file, func(w io.Writer) error { return CSV(w, names, rows) }})
}

// EngineSeries keeps the AerialVision time series of one engine — the
// data behind the paper's Figs. 9-25: per-bank DRAM efficiency and
// utilization of every partition, global and per-shader IPC and the
// warp-issue breakdown — under file names starting with prefix.
func (r *Report) EngineSeries(prefix string, eng *timing.Engine) {
	numbered := func(format string, n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf(format, i)
		}
		return names
	}
	for pi, ch := range eng.Partitions() {
		banks := numbered("bank%d", ch.NumBanks())
		r.Series(fmt.Sprintf("%sdram_efficiency_p%d.csv", prefix, pi), banks, ch.EfficiencySeries())
		r.Series(fmt.Sprintf("%sdram_utilization_p%d.csv", prefix, pi), banks, ch.UtilizationSeries())
	}
	st := eng.Stats()
	r.Series(prefix+"global_ipc.csv", []string{"ipc"}, [][]float64{st.GlobalIPCSeries()})
	shader := st.ShaderIPCSeries()
	r.Series(prefix+"shader_ipc.csv", numbered("shader%d", len(shader)), shader)
	names, series := st.WarpIssueBreakdown()
	r.Series(prefix+"warp_breakdown.csv", names, series)
}

// WriteCSV writes every kept table and series into dir, creating it if
// needed, and reports each path on W.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range r.files {
		var b bytes.Buffer
		if err := f.write(&b); err != nil {
			return err
		}
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			return err
		}
		r.Printf("wrote %s\n", path)
	}
	return nil
}
