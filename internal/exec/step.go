package exec

import (
	"fmt"
	"math"
)

// StepWarp executes exactly one warp instruction (the instruction at the
// top of the warp's SIMT stack), counts it into cov unless cov is nil, and
// describes what happened in *info. It is the single execution entry point
// for both the fast functional mode and the cycle-level timing model.
// RunWarp passes the machine's Coverage; the timing cores pass nil, so
// cores stepping disjoint CTAs concurrently never write shared counters.
//
// info is filled in place so callers can keep one StepInfo per core or
// per warp loop instead of copying ~300 bytes per instruction; every
// field except Addrs is reset on each call (see StepInfo.Addrs).
func (m *Machine) StepWarp(c *CTA, w *Warp, cov *Coverage, info *StepInfo) error {
	info.reset()
	if w.Done {
		return fmt.Errorf("exec: step of retired warp %d", w.ID)
	}
	if w.AtBarrier {
		return fmt.Errorf("exec: step of warp %d blocked at barrier", w.ID)
	}

	top := popReconverged(w)
	if top.Mask == 0 {
		w.Done = true
		info.WarpDone = true
		return nil
	}

	code := c.Grid.prog.code
	if top.PC >= len(code) {
		// Fell off the end of the kernel: implicit ret for all lanes.
		m.retireLanes(w, top.Mask)
		info.WarpDone = w.Done
		return nil
	}

	pc := top.PC
	d := &code[pc]
	info.PC = pc

	// Guard predicate: per-lane execution mask.
	execMask := top.Mask
	if d.pred >= 0 {
		execMask &= predMask((*row)(w.Regs[d.pred:]), d.flags&fPredNeg != 0)
	}
	info.ActiveMask = execMask
	if int64(w.InstrCount) >= m.warpCeiling {
		return &RunawayError{Kernel: c.Grid.Kernel.Name, CTA: c.Index, Warp: w.ID, Instrs: w.InstrCount}
	}
	w.InstrCount++
	if cov != nil {
		in := &c.Grid.Kernel.Instrs[pc]
		cov.note(covIndex(in.Op, in.T))
	}

	switch d.h {
	case hbra:
		m.stepBranch(w, top, pc, d, execMask)
		return nil

	case hret:
		partial := execMask != top.Mask
		m.retireLanes(w, execMask)
		if partial && !w.Done {
			nt := &w.Stack[len(w.Stack)-1]
			if nt.PC == pc { // surviving lanes continue past the guard
				nt.PC++
			}
		}
		info.WarpDone = w.Done
		return nil

	case hbar:
		if len(w.Stack) != 1 {
			return fmt.Errorf("exec: kernel %s pc %d: bar.sync in divergent control flow", c.Grid.Kernel.Name, pc)
		}
		w.AtBarrier = true
		top.PC++
		info.Barrier = true
		return nil

	case hmembar:

	case hld:
		if err := m.stepLoad(c, w, d, execMask, info); err != nil {
			return err
		}
	case hst:
		if err := m.stepStore(c, w, d, execMask, info); err != nil {
			return err
		}
	case hatom:
		if err := m.stepAtom(c, w, d, execMask, info); err != nil {
			return err
		}
	case htex:
		if err := m.stepTex(c, w, d, execMask, info); err != nil {
			return err
		}
	case herr:
		if execMask != 0 {
			return c.Grid.prog.errs[pc]
		}
	default:
		if err := m.stepALU(c, w, pc, d, execMask); err != nil {
			return err
		}
	}
	top.PC++
	return nil
}

// predMask gathers a predicate row into a lane mask: bit l is set when
// lane l's predicate is true (false with neg). Four independent
// accumulators keep the 32 tests from serialising on one register.
func predMask(p *row, neg bool) uint32 {
	var m0, m1, m2, m3 uint32
	for l := 0; l < 8; l++ {
		if p[l] != 0 {
			m0 |= 1 << l
		}
		if p[l+8] != 0 {
			m1 |= 1 << l
		}
		if p[l+16] != 0 {
			m2 |= 1 << l
		}
		if p[l+24] != 0 {
			m3 |= 1 << l
		}
	}
	pm := m0 | m1<<8 | m2<<16 | m3<<24
	if neg {
		pm = ^pm
	}
	return pm
}

// PeekPC returns the PC of the instruction the warp will execute next,
// after popping any reconverged stack entries (idempotent bookkeeping). It
// returns -1 when the warp has retired or will retire on its next step.
// The timing model uses this to consult the scoreboard before issue.
func (m *Machine) PeekPC(c *CTA, w *Warp) int {
	if w.Done {
		return -1
	}
	top := popReconverged(w)
	if top.Mask == 0 || top.PC >= len(c.Grid.prog.code) {
		return -1
	}
	return top.PC
}

// popReconverged pops the stack entries whose lanes have reached their
// reconvergence PC or all retired, and returns the entry left on top.
func popReconverged(w *Warp) *StackEntry {
	for len(w.Stack) > 1 {
		top := &w.Stack[len(w.Stack)-1]
		if top.PC != top.RPC && top.Mask != 0 {
			return top
		}
		w.Stack = w.Stack[:len(w.Stack)-1]
	}
	return &w.Stack[0]
}

// retireLanes removes lanes from every stack entry and pops empty entries.
func (m *Machine) retireLanes(w *Warp, mask uint32) {
	for i := range w.Stack {
		w.Stack[i].Mask &^= mask
	}
	for len(w.Stack) > 0 && w.Stack[len(w.Stack)-1].Mask == 0 {
		w.Stack = w.Stack[:len(w.Stack)-1]
	}
	if len(w.Stack) == 0 {
		w.Done = true
	}
}

// stepBranch implements SIMT-stack branch handling with reconvergence at
// the branch's immediate post-dominator (d.rpc).
func (m *Machine) stepBranch(w *Warp, top *StackEntry, pc int, d *instr, takenMask uint32) {
	active := top.Mask
	notTaken := active &^ takenMask
	switch {
	case notTaken == 0: // uniform taken
		top.PC = int(d.target)
	case takenMask == 0: // uniform not taken
		top.PC++
	default: // divergence: current entry becomes the reconvergence entry
		rpc := int(d.rpc)
		fall := pc + 1
		top.PC = rpc
		w.Stack = append(w.Stack,
			StackEntry{PC: fall, RPC: rpc, Mask: notTaken},
			StackEntry{PC: int(d.target), RPC: rpc, Mask: takenMask},
		)
	}
}

// maxWarpInstrs is the interpreter's runaway guard, in functional and
// timing mode alike: StepWarp refuses the next instruction of a warp that
// has executed this many in one CTA (barrier episodes included) with a
// RunawayError. Such a warp is taken to be spinning — a loop bound
// computed by a broken instruction implementation is how internal/debug
// meets one. In timing mode the guard ends the batch long before
// timing.Engine.Drain's cycle deadline would. The largest count any
// tier-1 test or benchmark workload reaches is 10,974 (fft2d_r2c_16x16),
// 1,528x below it; every warp of the CTA spins to the ceiling together,
// so an 8-warp CTA costs about ten seconds to give up on.
const maxWarpInstrs = 1 << 24

// RunawayError reports a warp stopped by the maxWarpInstrs guard; it names
// the kernel, CTA and warp itself, so callers return it unwrapped. The
// Machine (and a timing engine) stays usable: the next launch starts from
// fresh CTA state.
type RunawayError struct {
	Kernel    string
	CTA, Warp int
	Instrs    uint64
}

func (e *RunawayError) Error() string {
	return fmt.Sprintf("exec: kernel %s cta %d warp %d still running after %d instructions (runaway loop?)",
		e.Kernel, e.CTA, e.Warp, e.Instrs)
}

// RunCTA functionally executes one CTA, interleaving warps at barrier
// granularity, until each warp has retired or executed budget
// instructions counted from the fresh CTA (math.MaxInt64 runs the CTA to
// completion; the checkpoint flow's in-flight CTAs stop at y). Each pass
// runs every warp until it retires, reaches the barrier or spends its
// budget; the barrier then releases if every live warp waits at it, and
// the run ends when it does not.
func (m *Machine) RunCTA(c *CTA, budget int64) error {
	var scratch StepInfo
	info := &scratch
	if m.observe != nil {
		info = &m.observed
	}
	for {
		for _, w := range c.Warps {
			for !w.Done && !w.AtBarrier && int64(w.InstrCount) < budget {
				if err := m.StepWarp(c, w, m.cov, info); err != nil {
					if _, runaway := err.(*RunawayError); runaway {
						return err
					}
					return fmt.Errorf("exec: kernel %s cta %d warp %d: %w",
						c.Grid.Kernel.Name, c.Index, w.ID, err)
				}
				if m.observe != nil {
					m.observe(&m.observed)
				}
			}
		}
		if !c.ReleaseBarrier() {
			return nil
		}
	}
}

// ReleaseBarrier clears the barrier flag on all warps if every live warp
// has arrived; it reports whether a release happened. RunCTA and the
// timing model both release barriers through it.
func (c *CTA) ReleaseBarrier() bool {
	live, waiting := 0, 0
	for _, w := range c.Warps {
		if !w.Done {
			live++
			if w.AtBarrier {
				waiting++
			}
		}
	}
	if live > 0 && waiting == live {
		for _, w := range c.Warps {
			w.AtBarrier = false
		}
		return true
	}
	return false
}

// ObserveGrid is RunGrid with observe called after every warp instruction
// (every StepWarp the loop makes, a warp's retiring step included): what a
// profiler that counts instructions or memory traffic needs, on the one
// loop, so it shares RunGrid's exits — a faulting instruction and the
// runaway guard both end the launch with an error.
func (m *Machine) ObserveGrid(g *Grid, observe func(*StepInfo)) error {
	m.observe = observe
	defer func() { m.observe = nil }()
	return m.RunGrid(g)
}

// RunGrid functionally executes an entire launch, CTA by CTA in block
// order. This is the paper's fast Functional simulation mode. Every block
// runs in one CTA's storage, which the machine keeps for its next launch:
// the first block through InitCTA, the rest through Reset.
func (m *Machine) RunGrid(g *Grid) error {
	var order []int
	if m.ctaOrder != nil {
		order = m.ctaOrder(g.NumCTAs())
	}
	block := func(k int) int {
		if order == nil {
			return k
		}
		return order[k]
	}
	cta := g.InitCTA(block(0), &m.free)
	defer m.free.Put(cta)
	for k := 0; k < g.NumCTAs(); k++ {
		if k > 0 {
			cta.Reset(block(k))
		}
		if err := m.RunCTA(cta, math.MaxInt64); err != nil {
			return err
		}
	}
	return nil
}
