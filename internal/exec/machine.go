// Package exec implements GPGPU-Sim-style functional simulation of PTX
// kernels: warps of 32 threads executing in lockstep under SIMT
// reconvergence stacks, with barriers, predication, all memory spaces,
// textures and atomics. The timing model (internal/timing) drives the same
// machine one warp-instruction at a time; the functional mode used for
// fast-forwarding (paper §III-F) runs warps to completion directly.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/ptx"
)

// WarpSize is the number of threads per warp.
const WarpSize = 32

// Dim3 is a CUDA dim3.
type Dim3 struct{ X, Y, Z int }

// Count returns X*Y*Z (with zero components treated as 1).
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Config configures a functional machine.
type Config struct {
	Bugs BugSet
}

// Machine executes PTX kernels against a device memory image.
type Machine struct {
	cfg Config
	Mem *device.Memory
	Tex *device.TextureRegistry

	cov *Coverage
	rec *memRecorder // non-nil only inside CaptureGrid (memo.go)
	// observe is ObserveGrid's per-step callback, nil outside it, and
	// observed the StepInfo RunWarp steps into while it is set: on the
	// Machine, because a pointer to RunWarp's own scratch handed to a func
	// value would move that scratch to the heap on every functional path.
	observe  func(*StepInfo)
	observed StepInfo

	warpCeiling int64 // maxWarpInstrs; tests lower it (export_test.go)

	// The program cache lives as long as the Machine and is never evicted:
	// it holds every kernel launched so far (136 bytes per instruction, a
	// few hundred KiB for the whole cuDNN-style library) and keeps the
	// *ptx.Kernel reachable, as cudart.Context.modules — which never
	// unloads — already does. A long-lived Machine fed an unbounded stream
	// of freshly parsed modules grows without bound; make a new Machine.
	progMu sync.Mutex
	progs  map[*ptx.Kernel]*program // kernels lowered so far (decode.go)
	consts map[uint64]*row          // immediates broadcast to rows, shared by those programs
}

// NewMachine creates a functional machine over the given memory image and
// texture registry (either may be shared with a runtime context).
func NewMachine(cfg Config, mem *device.Memory, tex *device.TextureRegistry) *Machine {
	return &Machine{cfg: cfg, Mem: mem, Tex: tex, cov: &Coverage{}, warpCeiling: maxWarpInstrs,
		progs: make(map[*ptx.Kernel]*program), consts: make(map[uint64]*row)}
}

// Coverage returns the machine's instruction-implementation coverage
// counters (see coverage.go; used for differential coverage analysis).
// They count functional-mode executions only — RunGrid and CaptureGrid —
// never a warp instruction the timing model issues.
func (m *Machine) Coverage() *Coverage { return m.cov }

// Grid is one kernel launch: grid/block geometry plus launch state.
type Grid struct {
	Kernel    *ptx.Kernel
	GridDim   Dim3
	BlockDim  Dim3
	Params    []byte
	SharedDyn int // dynamic shared memory bytes (third launch parameter)

	machine *Machine
	prog    *program // Kernel lowered for machine
}

// NewGrid prepares a launch. The parameter buffer must match the kernel's
// parameter layout (see cudart for the marshalling helpers). The first
// launch of a kernel on a machine lowers it (decode.go).
func (m *Machine) NewGrid(k *ptx.Kernel, gridDim, blockDim Dim3, params []byte, sharedDyn int) (*Grid, error) {
	if k == nil {
		return nil, fmt.Errorf("exec: nil kernel")
	}
	if blockDim.Count() == 0 || blockDim.Count() > 1024 {
		return nil, fmt.Errorf("exec: bad block size %d", blockDim.Count())
	}
	if len(params) < k.ParamBytes() {
		return nil, fmt.Errorf("exec: kernel %s needs %d parameter bytes, got %d",
			k.Name, k.ParamBytes(), len(params))
	}
	return &Grid{
		Kernel: k, GridDim: gridDim, BlockDim: blockDim,
		Params: params, SharedDyn: sharedDyn, machine: m, prog: m.program(k),
	}, nil
}

// NumCTAs returns the number of thread blocks in the grid.
func (g *Grid) NumCTAs() int { return g.GridDim.Count() }

// NumWarpsPerCTA returns warps per block.
func (g *Grid) NumWarpsPerCTA() int {
	return (g.BlockDim.Count() + WarpSize - 1) / WarpSize
}

// SharedBytes returns the total shared memory per CTA (static + dynamic).
func (g *Grid) SharedBytes() int { return g.Kernel.SharedBytes + g.SharedDyn }

// Machine returns the machine this grid executes on.
func (g *Grid) Machine() *Machine { return g.machine }

// StackEntry is one SIMT reconvergence stack entry.
type StackEntry struct {
	PC   int
	RPC  int // reconvergence PC; -1 for the bottom entry
	Mask uint32
}

// Warp is 32 threads executing in lockstep.
type Warp struct {
	ID    int
	Stack []StackEntry
	// Regs holds raw register bits, laid out slot-major:
	// Regs[slot*WarpSize+lane].
	Regs   []uint64
	Locals [][]byte // per-lane local memory; nil when kernel uses none
	// InitMask has a bit per lane that exists in the thread block.
	InitMask   uint32
	AtBarrier  bool
	Done       bool
	InstrCount uint64
}

// CTA is one thread block in flight.
type CTA struct {
	Grid   *Grid
	Index  int // linear block index
	Shared []byte
	Warps  []*Warp
}

// InitCTA builds the architectural state for block index i (registers
// zeroed, SIMT stacks at PC 0). This corresponds to GPGPU-Sim's CTA issue.
// It only allocates; Reset defines the state.
func (g *Grid) InitCTA(i int) *CTA {
	k := g.Kernel
	nThreads := g.BlockDim.Count()
	cta := &CTA{Grid: g, Shared: make([]byte, g.SharedBytes())}
	for w := 0; w < g.NumWarpsPerCTA(); w++ {
		warp := &Warp{
			ID:    w,
			Stack: make([]StackEntry, 0, 4),
			Regs:  make([]uint64, k.NumSlots*WarpSize),
		}
		for l := 0; l < WarpSize; l++ {
			if w*WarpSize+l < nThreads {
				warp.InitMask |= 1 << l
			}
		}
		if k.LocalBytes > 0 {
			warp.Locals = make([][]byte, WarpSize)
			for l := 0; l < WarpSize; l++ {
				if warp.InitMask&(1<<l) != 0 {
					warp.Locals[l] = make([]byte, k.LocalBytes)
				}
			}
		}
		cta.Warps = append(cta.Warps, warp)
	}
	cta.Reset(i)
	return cta
}

// Reset puts the CTA in the state of block index i about to issue. Every
// block of a grid has the same shape, so whoever runs blocks one after
// another (RunGrid, the timing dispatcher, the hardware oracle) reuses a
// finished CTA's storage instead of allocating a set of register files
// per block.
func (c *CTA) Reset(i int) {
	c.Index = i
	clear(c.Shared)
	for _, w := range c.Warps {
		clear(w.Regs)
		for _, lm := range w.Locals {
			clear(lm)
		}
		w.Stack = append(w.Stack[:0], StackEntry{PC: 0, RPC: -1, Mask: w.InitMask})
		w.AtBarrier, w.Done, w.InstrCount = false, false, 0
	}
}

// Done reports whether every warp of the CTA has retired.
func (c *CTA) Done() bool {
	for _, w := range c.Warps {
		if !w.Done {
			return false
		}
	}
	return true
}

// StepInfo describes one executed warp instruction; the timing model turns
// this into pipeline and memory-system events.
type StepInfo struct {
	PC         int
	ActiveMask uint32
	IsMem      bool
	IsStore    bool
	IsAtomic   bool
	Space      ptx.Space
	AccSize    int // bytes accessed per lane (vector width included)
	// Addrs holds the address each lane accessed. Only the lanes in
	// ActiveMask of a memory instruction are meaningful: a StepInfo is
	// reused across steps and the other entries keep stale values.
	Addrs    [WarpSize]uint64
	Barrier  bool
	WarpDone bool
}

// reset clears everything a step reports except Addrs.
func (s *StepInfo) reset() {
	s.PC, s.ActiveMask = 0, 0
	s.IsMem, s.IsStore, s.IsAtomic = false, false, false
	s.Space, s.AccSize = ptx.SpaceNone, 0
	s.Barrier, s.WarpDone = false, false
}

// SegmentBytes is the size of the segments Segments counts.
const SegmentBytes = 128

// Segments counts the distinct SegmentBytes segments that the active lanes
// of a memory instruction start in, whatever the space: the traffic count
// the hardware oracle (internal/hwmodel) reads. An access that straddles a
// segment edge counts where it starts only; the timing coalescer, which
// counts both segments, has its own rule. 0 for other instructions.
func (s *StepInfo) Segments() int {
	m := s.ActiveMask
	if !s.IsMem || m == 0 {
		return 0
	}
	// one pass while the lanes' segments ascend, the usual case
	n, prev := 1, s.Addrs[lane(m)]/SegmentBytes
	for m &= m - 1; m != 0; m &= m - 1 {
		seg := s.Addrs[lane(m)] / SegmentBytes
		if seg == prev {
			continue
		}
		if seg < prev {
			return s.segmentsAnyOrder()
		}
		n, prev = n+1, seg
	}
	return n
}

// segmentsAnyOrder is Segments for lanes in any order: a lane counts
// unless a lower active lane starts in the same segment.
func (s *StepInfo) segmentsAnyOrder() int {
	n := 0
lanes:
	for m := s.ActiveMask; m != 0; m &= m - 1 {
		l := lane(m)
		seg := s.Addrs[l] / SegmentBytes
		for below := s.ActiveMask & (1<<l - 1); below != 0; below &= below - 1 {
			if s.Addrs[lane(below)]/SegmentBytes == seg {
				continue lanes
			}
		}
		n++
	}
	return n
}

// sregRow materialises a special register for every lane of the warp.
// Thread coordinates advance with carries from the warp's first thread, so
// no lane pays a division; everything else is warp-uniform.
func sregRow(c *CTA, w *Warp, s ptx.SReg, out *row) {
	g := c.Grid
	bx, by, bz := max(g.BlockDim.X, 1), max(g.BlockDim.Y, 1), max(g.BlockDim.Z, 1)
	gx, gy, gz := max(g.GridDim.X, 1), max(g.GridDim.Y, 1), max(g.GridDim.Z, 1)
	var v uint64
	switch s {
	case ptx.SRegTidX, ptx.SRegTidY, ptx.SRegTidZ:
		lin := w.ID * WarpSize
		x, y, z := lin%bx, (lin/bx)%by, lin/(bx*by)
		for l := range out {
			switch s {
			case ptx.SRegTidX:
				out[l] = uint64(x)
			case ptx.SRegTidY:
				out[l] = uint64(y)
			default:
				out[l] = uint64(z)
			}
			if x++; x == bx {
				x = 0
				if y++; y == by {
					y = 0
					z++
				}
			}
		}
		return
	case ptx.SRegLaneID:
		for l := range out {
			out[l] = uint64(l)
		}
		return
	case ptx.SRegNtidX:
		v = uint64(bx)
	case ptx.SRegNtidY:
		v = uint64(by)
	case ptx.SRegNtidZ:
		v = uint64(bz)
	case ptx.SRegCtaidX:
		v = uint64(c.Index % gx)
	case ptx.SRegCtaidY:
		v = uint64((c.Index / gx) % gy)
	case ptx.SRegCtaidZ:
		v = uint64(c.Index / (gx * gy))
	case ptx.SRegNctaidX:
		v = uint64(gx)
	case ptx.SRegNctaidY:
		v = uint64(gy)
	case ptx.SRegNctaidZ:
		v = uint64(gz)
	case ptx.SRegWarpID:
		v = uint64(w.ID)
	case ptx.SRegClock:
		v = w.InstrCount
	}
	for l := range out {
		out[l] = v
	}
}

// immValue converts an immediate operand to raw bits of type t. Float
// immediates are canonically stored as f64 bits by the parser.
func immValue(o *ptx.Operand, t ptx.Type) uint64 {
	if !o.FloatImm {
		return o.Imm
	}
	f := bitsF64(o.Imm)
	switch t {
	case ptx.F16:
		return uint64(F32ToHalf(float32(f)))
	case ptx.F32:
		return f32bits(float32(f))
	case ptx.F64:
		return o.Imm
	default:
		return uint64(int64(f))
	}
}

// classifySpace resolves the effective space of a generic address.
func classifySpace(space ptx.Space, addr uint64) ptx.Space {
	if space != ptx.SpaceGeneric && space != ptx.SpaceNone {
		return space
	}
	switch {
	case device.InSharedWindow(addr):
		return ptx.SpaceShared
	case device.InLocalWindow(addr):
		return ptx.SpaceLocal
	default:
		return ptx.SpaceGlobal
	}
}
