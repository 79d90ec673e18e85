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
// Resume restores the state into a fresh context and continues kernel x
// from CTA M in the (7-8x slower) Performance simulation mode; kernels
// before x are skipped, kernels after x run normally under timing.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"

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
	Regs       []uint64
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

// State is a complete checkpoint.
type State struct {
	Point     Point
	Kernel    string
	GridDim   exec.Dim3
	BlockDim  exec.Dim3
	SharedDyn int
	Params    []byte
	CTAs      []CTAState       // Data1
	Mem       *device.Snapshot // Data2
	Launches  int              // kernels fully executed before the checkpoint kernel
}

// Encode serialises the state with gob.
func (s *State) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserialises a checkpoint.
func Decode(data []byte) (*State, error) {
	var s State
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, err
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
		Point: r.P, Kernel: g.Kernel.Name,
		GridDim: g.GridDim, BlockDim: g.BlockDim,
		SharedDyn: g.SharedDyn,
		Params:    append([]byte(nil), g.Params...),
		Launches:  r.n,
	}
	total := g.NumCTAs()
	m0 := r.P.CTAM
	if m0 > total {
		m0 = total
	}
	for i := 0; i < m0; i++ {
		cta := g.InitCTA(i)
		if err := m.RunCTA(cta); err != nil {
			return cudart.KernelStats{}, err
		}
	}
	// CTAs M..M+T: execute y instructions per warp, then snapshot Data1.
	hi := m0 + r.P.CTAT
	if hi >= total {
		hi = total - 1
	}
	for i := m0; i <= hi && i < total; i++ {
		cta := g.InitCTA(i)
		if err := runBudget(m, cta, r.P.InstrY); err != nil {
			return cudart.KernelStats{}, err
		}
		st.CTAs = append(st.CTAs, snapshotCTA(cta))
	}
	st.Mem = r.Ctx.Mem.Snapshot() // Data2
	r.State = st
	return cudart.KernelStats{Name: g.Kernel.Name}, nil
}

// runBudget executes up to `budget` instructions per warp, respecting
// barriers (a warp blocked at a barrier before exhausting its budget
// waits for the others, exactly like the functional scheduler).
func runBudget(m *exec.Machine, cta *exec.CTA, budget int64) error {
	for {
		progressed := false
		for _, w := range cta.Warps {
			left := budget - int64(w.InstrCount) // counted from the fresh CTA
			if w.Done || w.AtBarrier || left <= 0 {
				continue
			}
			n, err := m.RunWarp(cta, w, left)
			if err != nil {
				return err
			}
			if n > 0 {
				progressed = true
			}
		}
		if cta.ReleaseBarrier() {
			continue
		}
		if !progressed {
			return nil
		}
	}
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

func restoreCTA(g *exec.Grid, cs CTAState) *exec.CTA {
	cta := g.InitCTA(cs.Index)
	copy(cta.Shared, cs.Shared)
	for i, ws := range cs.Warps {
		w := cta.Warps[i]
		w.Stack = append(w.Stack[:0], ws.Stack...)
		copy(w.Regs, ws.Regs)
		w.InitMask = ws.InitMask
		w.AtBarrier = ws.AtBarrier
		w.Done = ws.Done
		w.InstrCount = ws.InstrCount
		for l, lm := range ws.Locals {
			if lm != nil && w.Locals != nil {
				copy(w.Locals[l], lm)
			}
		}
	}
	return cta
}

// ResumeRunner is a cudart.Runner that restores a checkpoint: kernels
// before x are skipped (global memory was restored wholesale), kernel x
// resumes from CTA M with the saved in-flight CTAs, and later kernels run
// under the performance engine.
type ResumeRunner struct {
	Ctx     *cudart.Context
	State   *State
	Engine  *timing.Engine
	n       int
	resumed bool
}

// Restore loads Data2 into the context's memory image. Call once before
// replaying the application.
func (r *ResumeRunner) Restore() {
	r.Ctx.Mem.Restore(r.State.Mem)
}

// RunKernel implements cudart.Runner.
func (r *ResumeRunner) RunKernel(g *exec.Grid) (cudart.KernelStats, error) {
	idx := r.n
	r.n++
	switch {
	case idx < r.State.Launches:
		// skipped: effects already in the restored global memory
		return cudart.KernelStats{Name: g.Kernel.Name}, nil
	case idx == r.State.Launches && !r.resumed:
		r.resumed = true
		if g.Kernel.Name != r.State.Kernel {
			return cudart.KernelStats{}, fmt.Errorf(
				"checkpoint: replay diverged: kernel %q at launch %d, checkpoint has %q",
				g.Kernel.Name, idx, r.State.Kernel)
		}
		var preload []*exec.CTA
		for _, cs := range r.State.CTAs {
			preload = append(preload, restoreCTA(g, cs))
		}
		return r.Engine.RunGridResume(g, r.State.Point.CTAM, preload)
	default:
		return r.Engine.RunGrid(g)
	}
}
