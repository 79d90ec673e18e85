// Package aerial is the AerialVision analog (Ariel et al., ISPASS 2010):
// it renders the timing model's per-interval metrics — per-bank DRAM
// efficiency/utilization, global and per-shader IPC, and the warp-issue
// breakdown — as ASCII heat maps and CSV, the same views the paper's
// Figs. 9-25 show, and carries the tables (Table) and the per-run report
// (Report) cmd/gpgpusim prints and exports.
package aerial

import (
	"fmt"
	"io"
	"strings"
)

// shades maps intensity [0,1] to characters, dark to bright.
var shades = []byte(" .:-=+*#%@")

func shade(v, max float64) byte {
	if max <= 0 || v <= 0 {
		return shades[0]
	}
	f := v / max
	if f > 1 {
		f = 1
	}
	idx := int(f * float64(len(shades)-1))
	return shades[idx]
}

// HeatMap renders rows (e.g. banks or shader cores) over time buckets.
// Values are normalised to the global maximum. rowLabel generates the
// left-hand label for row i.
func HeatMap(w io.Writer, title string, rows [][]float64, rowLabel func(int) string, bucketCycles uint64) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	maxv := 0.0
	width := 0
	for _, r := range rows {
		if len(r) > width {
			width = len(r)
		}
		for _, v := range r {
			if v > maxv {
				maxv = v
			}
		}
	}
	const maxCols = 100
	stride := 1
	if width > maxCols {
		stride = (width + maxCols - 1) / maxCols
	}
	for i := len(rows) - 1; i >= 0; i-- {
		var b strings.Builder
		for c := 0; c < width; c += stride {
			// average over the stride window
			var sum float64
			n := 0
			for j := c; j < c+stride && j < len(rows[i]); j++ {
				sum += rows[i][j]
				n++
			}
			v := 0.0
			if n > 0 {
				v = sum / float64(n)
			}
			b.WriteByte(shade(v, maxv))
		}
		fmt.Fprintf(w, "%-12s |%s|\n", rowLabel(i), b.String())
	}
	fmt.Fprintf(w, "%-12s  x: %d buckets x %d cycles (col = %d buckets), max=%.3f\n",
		"", width, bucketCycles, stride, maxv)
}

// Line renders a single series as a bar-height strip.
func Line(w io.Writer, title string, series []float64, bucketCycles uint64) {
	HeatMap(w, title, [][]float64{series}, func(int) string { return title }, bucketCycles)
}

// StackedSummary prints, for a set of named series (e.g. the warp-issue
// breakdown), the time-averaged fraction of each category, skipping
// all-zero rows — a textual stand-in for AerialVision's stacked plots.
func StackedSummary(w io.Writer, title string, names []string, series [][]float64) {
	fmt.Fprintf(w, "== %s (time-averaged fractions) ==\n", title)
	for i, name := range names {
		var sum float64
		for _, v := range series[i] {
			sum += v
		}
		if len(series[i]) > 0 {
			sum /= float64(len(series[i]))
		}
		if sum > 0.0005 {
			bar := strings.Repeat("#", int(sum*60))
			fmt.Fprintf(w, "%-16s %6.2f%% %s\n", name, sum*100, bar)
		}
	}
}

// CSV writes rows as CSV with a header of bucket indices.
func CSV(w io.Writer, rowNames []string, rows [][]float64) error {
	width := 0
	for _, r := range rows {
		if len(r) > width {
			width = len(r)
		}
	}
	var b strings.Builder
	b.WriteString("series")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, ",%d", i)
	}
	b.WriteByte('\n')
	for i, r := range rows {
		b.WriteString(rowNames[i])
		for c := 0; c < width; c++ {
			if c < len(r) {
				fmt.Fprintf(&b, ",%.6g", r[c])
			} else {
				b.WriteString(",0")
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
