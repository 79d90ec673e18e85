package main

// Measurement from outside: the benchmark never edits the simulator, it
// stands on the one boundary every launch crosses — cudart.Runner /
// cudart.StreamRunner — and times the calls there. spanRunner wraps the
// real timing.Runner (engine time); functionalRunner replaces it with a
// timed Machine.RunGrid (interpreter-only time). The same launch stream
// through both, at the same boundary, splits engine time into
// interpreter and timing model.

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

// span is one timed interval: name, start, end, the span that caused it
// (index into the tracer's list, -1 for a root) and the workload
// iteration it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
}

// tracer keeps spans in memory; they are written out (-trace-out) only
// when the run ends. A nil tracer is valid and records nothing, so
// workload code is identical with tracing on and off.
type tracer struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
	t0       time.Time
	cur      int32
	iter     int32
}

func newTracer(workload string) *tracer {
	return &tracer{Workload: workload, t0: time.Now(), cur: -1, iter: -1}
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Iter: t.iter})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.Spans[id].End = int64(time.Since(t.t0))
	t.cur = t.Spans[id].Parent
}

// iteration runs one workload iteration (a transformer batch, a training
// step, a launch) under its own span.
func (t *tracer) iteration(i int, f func() error) error {
	if t == nil {
		return f()
	}
	t.iter = int32(i)
	id := t.begin("iteration")
	err := f()
	t.end(id)
	t.iter = -1
	return err
}

// selfTimes returns each span name's summed self time: a span's duration
// minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.Spans))
	for i, s := range t.Spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.Spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// count returns how many spans carry the name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// iterationTimes returns the iteration spans' durations in order.
func (t *tracer) iterationTimes() []time.Duration {
	var out []time.Duration
	for _, s := range t.Spans {
		if s.Name == "iteration" {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span names of the runner boundary.
const (
	spanRunKernel    = "timing.RunKernel"
	spanSubmitKernel = "timing.SubmitKernel"
	spanSubmitCopy   = "timing.SubmitCopy"
	spanDrainAll     = "timing.DrainAll"
	spanFunctional   = "exec.RunGrid"
)

// spanRunner is timing.Runner with a span around every call. cudart only
// type-asserts the StreamRunner interface, so Context.SetRunner accepts
// it and async launches keep their concurrent-stream path.
type spanRunner struct {
	inner timing.Runner
	tr    *tracer
}

func (r *spanRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	id := r.tr.begin(spanRunKernel)
	st, err := r.inner.RunKernel(g)
	r.tr.end(id)
	return st, err
}

func (r *spanRunner) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	id := r.tr.begin(spanSubmitKernel)
	tk, err := r.inner.SubmitKernel(g, stream)
	r.tr.end(id)
	return tk, err
}

func (r *spanRunner) SubmitCopy(stream, bytes int, apply func()) cudart.AsyncTicket {
	id := r.tr.begin(spanSubmitCopy)
	tk := r.inner.SubmitCopy(stream, bytes, apply)
	r.tr.end(id)
	return tk
}

func (r *spanRunner) DrainAll() error {
	id := r.tr.begin(spanDrainAll)
	err := r.inner.DrainAll()
	r.tr.end(id)
	return err
}

func (r *spanRunner) ClockMHz() float64 { return r.inner.ClockMHz() }

// functionalRunner is the interpreter-only twin: RunKernel is a timed
// Machine.RunGrid. It deliberately does not implement StreamRunner, so
// every launch runs synchronously at the call — same kernels, same
// parameters, same instruction count, no timing model.
type functionalRunner struct {
	tr     *tracer
	instrs uint64 // warp instructions interpreted so far
}

func (r *functionalRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	m := g.Machine()
	before := m.Coverage().Total()
	id := r.tr.begin(spanFunctional)
	err := m.RunGrid(g)
	r.tr.end(id)
	if err != nil {
		return cudart.KernelStats{}, err
	}
	n := m.Coverage().Total() - before
	r.instrs += n
	return cudart.KernelStats{Name: g.Kernel.Name, GridDim: g.GridDim, BlockDim: g.BlockDim, WarpInstrs: n}, nil
}
