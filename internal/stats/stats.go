// Package stats provides the correlation mathematics of the paper's §IV
// (comparing simulator cycle counts to NVProf-measured hardware cycles)
// and small table-formatting helpers shared by the harness binaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Pearson returns the Pearson correlation coefficient of two series.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		// The conversions round each product before the add, so no
		// target fuses them into an FMA and every host agrees.
		cov += float64(dx * dy)
		vx += float64(dx * dx)
		vy += float64(dy * dy)
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Percentile returns the p-th percentile of samples using the
// nearest-rank method (no interpolation): the smallest value whose rank
// r satisfies r >= ceil(p/100 * N). On small samples this is exact —
// p99.9 of 16 latencies is the 16th-smallest sample, never a value that
// was not observed, which is what serving-latency reporting needs. The
// input is not modified (a sorted copy is taken); an empty input returns
// NaN, p <= 0 returns the minimum, p >= 100 the maximum.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s)))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// RelativeError returns |sim-hw| / hw.
func RelativeError(hw, sim float64) float64 {
	if hw == 0 {
		return math.NaN()
	}
	return math.Abs(sim-hw) / hw
}

// KernelTime pairs one kernel's hardware and simulator cycle counts.
type KernelTime struct {
	Name      string
	HWCycles  float64
	SimCycles float64
	Launches  int
}

// Correlation summarises a hardware-vs-simulator comparison.
type Correlation struct {
	Kernels      []KernelTime
	TotalHW      float64
	TotalSim     float64
	Pearson      float64
	OverallError float64 // |sim-hw|/hw on totals
}

// Correlate aggregates per-kernel samples (same kernel name merged) and
// computes overall metrics.
func Correlate(samples []KernelTime) Correlation {
	agg := map[string]*KernelTime{}
	var order []string
	for _, s := range samples {
		k, ok := agg[s.Name]
		if !ok {
			k = &KernelTime{Name: s.Name}
			agg[s.Name] = k
			order = append(order, s.Name)
		}
		k.HWCycles += s.HWCycles
		k.SimCycles += s.SimCycles
		k.Launches += s.Launches
		if s.Launches == 0 {
			k.Launches++
		}
	}
	var c Correlation
	var hw, sim []float64
	for _, name := range order {
		k := agg[name]
		c.Kernels = append(c.Kernels, *k)
		c.TotalHW += k.HWCycles
		c.TotalSim += k.SimCycles
		hw = append(hw, k.HWCycles)
		sim = append(sim, k.SimCycles)
	}
	c.Pearson = Pearson(hw, sim)
	c.OverallError = RelativeError(c.TotalHW, c.TotalSim)
	return c
}

// SortByHW orders kernels by descending hardware time.
func (c *Correlation) SortByHW() {
	sort.Slice(c.Kernels, func(i, j int) bool {
		return c.Kernels[i].HWCycles > c.Kernels[j].HWCycles
	})
}

// Table renders a fixed-width table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Fmt formats a float compactly.
func Fmt(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
