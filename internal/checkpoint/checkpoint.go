// Package checkpoint implements the paper's §III-F checkpoint/resume
// support (Figs. 4-5). An application is fast-forwarded in the cheap
// Functional simulation mode up to a user-chosen point — kernel x, CTA M,
// with t additional in-flight CTAs executed for y instructions per warp —
// then the architectural state is saved:
//
//	Data1: register file and local memory per thread, SIMT stack per
//	       warp, shared memory per CTA (for the in-flight CTAs)
//	Data2: global memory
//
// Resume replays the application on a fresh context and continues kernel
// x from CTA M in the (7-8x slower) Performance simulation mode. The
// rules of resume, each with the test that enforces it:
//
//   - Data2 loads when kernel x is submitted, so what the host copied
//     before x cannot overwrite what the kernels before x computed
//     (`TestCheckpointMultiStreamResume`).
//   - Resume is stream-aware. `ResumeRunner` counts launches in
//     submission order, the order the capture ran them in behind cudart's
//     in-order adapter. Work before x completes at once, kernel x queues
//     on its own stream (`timing.Engine.SubmitResume`), and later work
//     queues like any other, so streams overlap; the run is the same at
//     any worker count (`TestCheckpointMultiStreamResume`).
//   - A state that does not fit kernel x's relaunch is refused
//     (`core.TestCheckpointResumeRefusesMisfits`).
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"repro/internal/cudart"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/timing"
)

// Point selects where to checkpoint.
type Point struct {
	KernelX int   // kernel launch index to stop inside
	CTAM    int   // first in-flight CTA
	CTAT    int   // number of in-flight CTAs after M (inclusive window is [M, M+T])
	InstrY  int64 // per-warp instruction budget for in-flight CTAs
}

// WarpState is the per-warp portion of Data1.
type WarpState struct {
	ID         int
	Stack      []exec.StackEntry
	Regs       []uint64 // exec.Warp.Regs: register rows (State.RegMap), not PTX slots
	Locals     [][]byte
	InitMask   uint32
	AtBarrier  bool
	Done       bool
	InstrCount uint64
}

// CTAState is one in-flight CTA's Data1.
type CTAState struct {
	Index  int
	Shared []byte
	Warps  []WarpState
}

// Version is the checkpoint format Encode writes and Decode accepts.
// Version 1 was the unversioned format, which resume did not validate.
// Version 2 saved each warp's registers by PTX register slot; version 3
// saves the register rows the decoder allocates slots onto.
const Version = 3

// VersionError is Decode's refusal of a checkpoint in another format
// version.
type VersionError struct{ Got, Want int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: format version %d, want %d", e.Got, e.Want)
}

// State is a complete checkpoint. The saved grid (GridDim through Params)
// is what the resumed application must relaunch at kernel x.
type State struct {
	Version   int
	Point     Point
	Kernel    string
	GridDim   exec.Dim3
	BlockDim  exec.Dim3
	SharedDyn int
	Params    []byte
	// RegMap is kernel x's register slot -> row map (exec.Grid.RegMap)
	// the saved register files are laid out by. Resume refuses a kernel
	// the decoder allocates otherwise: the rows would hold other slots.
	RegMap   []int32
	CTAs     []CTAState       // Data1
	Mem      *device.Snapshot // Data2
	Launches int              // kernels fully executed before the checkpoint kernel
}

// Encode serialises the state with gob.
func (s *State) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserialises a checkpoint. It refuses another format version
// and a Data2 image whose page list and pages disagree; whether Data1
// fits the kernel is checked when resume relaunches it.
func Decode(data []byte) (*State, error) {
	var s State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, err
	}
	switch {
	case s.Version != Version:
		return nil, &VersionError{Got: s.Version, Want: Version}
	case s.Mem == nil || len(s.Mem.PageNums) != len(s.Mem.Pages):
		return nil, fmt.Errorf("checkpoint: global memory image is missing or has page numbers and pages that disagree")
	}
	return &s, nil
}

// CaptureRunner is a cudart.Runner that runs kernels functionally until
// the checkpoint point, captures Data1/Data2, and skips everything after
// (paper: "All kernels with kernel_id > x are not executed").
type CaptureRunner struct {
	Ctx   *cudart.Context
	P     Point
	State *State
	n     int
}

// RunKernel implements cudart.Runner.
func (r *CaptureRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	m := g.Machine()
	switch {
	case r.State != nil: // already captured: skip
		return cudart.KernelStats{Name: g.Kernel.Name}, nil
	case r.n < r.P.KernelX:
		r.n++
		if err := m.RunGrid(g); err != nil {
			return cudart.KernelStats{}, err
		}
		return cudart.KernelStats{Name: g.Kernel.Name}, nil
	}

	// Kernel x: CTAs before M execute normally (checkpoint flow, Fig. 5).
	st := &State{
		Version: Version, Point: r.P, Kernel: g.Kernel.Name,
		GridDim: g.GridDim, BlockDim: g.BlockDim,
		SharedDyn: g.SharedDyn,
		Params:    append([]byte(nil), g.Params...),
		RegMap:    slices.Clone(g.RegMap()),
		Launches:  r.n,
	}
	total := g.NumCTAs()
	m0 := min(r.P.CTAM, total)
	for i := 0; i < m0; i++ {
		cta := g.InitCTA(i, nil)
		if err := m.RunCTA(cta, math.MaxInt64); err != nil {
			return cudart.KernelStats{}, err
		}
	}
	// CTAs M..M+T: execute y instructions per warp, then snapshot Data1.
	for i := m0; i <= m0+r.P.CTAT && i < total; i++ {
		cta := g.InitCTA(i, nil)
		if err := m.RunCTA(cta, r.P.InstrY); err != nil {
			return cudart.KernelStats{}, err
		}
		st.CTAs = append(st.CTAs, snapshotCTA(cta))
	}
	st.Mem = r.Ctx.Mem.Snapshot() // Data2
	r.State = st
	return cudart.KernelStats{Name: g.Kernel.Name}, nil
}

func snapshotCTA(cta *exec.CTA) CTAState {
	cs := CTAState{Index: cta.Index, Shared: append([]byte(nil), cta.Shared...)}
	for _, w := range cta.Warps {
		ws := WarpState{
			ID:         w.ID,
			Stack:      append([]exec.StackEntry(nil), w.Stack...),
			Regs:       append([]uint64(nil), w.Regs...),
			InitMask:   w.InitMask,
			AtBarrier:  w.AtBarrier,
			Done:       w.Done,
			InstrCount: w.InstrCount,
		}
		for _, lm := range w.Locals {
			ws.Locals = append(ws.Locals, append([]byte(nil), lm...))
		}
		cs.Warps = append(cs.Warps, ws)
	}
	return cs
}

// restoreCTA rebuilds a saved CTA of grid g, refusing one that does not
// fit a fresh CTA of the grid: another warp count, warp ID, register-file
// or local-memory size, thread mask, or a SIMT stack the interpreter
// cannot step.
func restoreCTA(g *exec.Grid, cs CTAState) (*exec.CTA, error) {
	cta := g.InitCTA(cs.Index, nil)
	if len(cs.Warps) != len(cta.Warps) || len(cs.Shared) != len(cta.Shared) {
		return nil, fmt.Errorf("checkpoint: CTA %d saved %d warps and %d shared bytes, the grid has %d and %d",
			cs.Index, len(cs.Warps), len(cs.Shared), len(cta.Warps), len(cta.Shared))
	}
	copy(cta.Shared, cs.Shared)
	for i, ws := range cs.Warps {
		w := cta.Warps[i]
		if err := ws.fits(w, len(g.Kernel.Instrs)); err != nil {
			return nil, fmt.Errorf("checkpoint: CTA %d warp %d: %w", cs.Index, i, err)
		}
		w.Stack = append(w.Stack[:0], ws.Stack...)
		copy(w.Regs, ws.Regs)
		w.AtBarrier = ws.AtBarrier
		w.Done = ws.Done
		w.InstrCount = ws.InstrCount
		for l, lm := range ws.Locals {
			copy(w.Locals[l], lm)
		}
	}
	return cta, nil
}

// fits reports why a saved warp cannot take the place of fresh warp w of
// a kernel with codeLen instructions.
func (ws *WarpState) fits(w *exec.Warp, codeLen int) error {
	if ws.ID != w.ID || ws.InitMask != w.InitMask {
		return fmt.Errorf("saved as warp %d with thread mask %#x, the grid has warp %d with %#x", ws.ID, ws.InitMask, w.ID, w.InitMask)
	}
	if len(ws.Regs) != len(w.Regs) || len(ws.Locals) != len(w.Locals) {
		return fmt.Errorf("%d registers and %d local-memory lanes saved, the kernel has %d and %d",
			len(ws.Regs), len(ws.Locals), len(w.Regs), len(w.Locals))
	}
	for l, lm := range ws.Locals {
		if len(lm) != len(w.Locals[l]) {
			return fmt.Errorf("lane %d: %d local-memory bytes saved, the kernel has %d", l, len(lm), len(w.Locals[l]))
		}
	}
	if len(ws.Stack) == 0 && !ws.Done {
		return fmt.Errorf("live warp saved with an empty SIMT stack")
	}
	for _, e := range ws.Stack {
		if e.PC < 0 || e.PC > codeLen || e.Mask&^ws.InitMask != 0 {
			return fmt.Errorf("SIMT stack entry at pc %d with mask %#x: the kernel has %d instructions and mask %#x",
				e.PC, e.Mask, codeLen, ws.InitMask)
		}
	}
	return nil
}

// fits reports why the state cannot resume grid g, the relaunch of kernel
// x: the grid must be the one saved, and the saved CTAs must be blocks
// M, M+1, ... of it, since the engine dispatches the blocks after them.
func (s *State) fits(g *exec.Grid) error {
	if g.Kernel.Name != s.Kernel {
		return fmt.Errorf("checkpoint: replay diverged: kernel %q at launch %d, checkpoint has %q",
			g.Kernel.Name, s.Launches, s.Kernel)
	}
	if g.GridDim != s.GridDim || g.BlockDim != s.BlockDim || g.SharedDyn != s.SharedDyn || !bytes.Equal(g.Params, s.Params) {
		return fmt.Errorf("checkpoint: kernel %s relaunched as grid %v block %v with %d dynamic shared bytes and parameters %x, checkpoint saved %v %v %d %x",
			s.Kernel, g.GridDim, g.BlockDim, g.SharedDyn, g.Params, s.GridDim, s.BlockDim, s.SharedDyn, s.Params)
	}
	if !slices.Equal(s.RegMap, g.RegMap()) {
		return fmt.Errorf("checkpoint: kernel %s saved its registers under another allocation of register slots to rows", s.Kernel)
	}
	m := s.Point.CTAM
	if m < 0 || m > g.NumCTAs()-len(s.CTAs) {
		return fmt.Errorf("checkpoint: %d in-flight CTAs from CTA %d do not fit a grid of %d", len(s.CTAs), m, g.NumCTAs())
	}
	for i, cs := range s.CTAs {
		if cs.Index != m+i {
			return fmt.Errorf("checkpoint: in-flight CTA %d has index %d, want %d", i, cs.Index, m+i)
		}
	}
	return nil
}

// ResumeRunner is the cudart.StreamRunner that resumes a checkpoint, by
// the rules above: a timing.Runner that completes the work before kernel
// x at once and submits kernel x preloaded. A context only submits to it
// and drains it.
type ResumeRunner struct {
	timing.Runner
	Ctx   *cudart.Context
	State *State
	n     int // kernels submitted so far
}

// fastForwarded is the ticket of work submitted before kernel x.
type fastForwarded struct{}

func (fastForwarded) Stats() (cudart.KernelStats, error) { return cudart.KernelStats{}, nil }

// SubmitKernel implements cudart.StreamRunner.
func (r *ResumeRunner) SubmitKernel(g *exec.Grid, stream int) (cudart.AsyncTicket, error) {
	idx := r.n
	r.n++
	switch {
	case idx < r.State.Launches:
		return fastForwarded{}, nil
	case idx > r.State.Launches:
		return r.Runner.SubmitKernel(g, stream)
	}
	if err := r.State.fits(g); err != nil {
		return nil, err
	}
	var preload []*exec.CTA
	for _, cs := range r.State.CTAs {
		cta, err := restoreCTA(g, cs)
		if err != nil {
			return nil, err
		}
		preload = append(preload, cta)
	}
	r.Ctx.Mem.Restore(r.State.Mem) // Data2
	return r.E.SubmitResume(g, stream, r.State.Point.CTAM, preload)
}

// SubmitCopy implements cudart.StreamRunner.
func (r *ResumeRunner) SubmitCopy(stream, bytes int, apply func()) cudart.AsyncTicket {
	if r.n <= r.State.Launches {
		return fastForwarded{}
	}
	return r.Runner.SubmitCopy(stream, bytes, apply)
}
