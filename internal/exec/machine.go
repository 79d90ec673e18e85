package exec

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ptx"
)

// WarpSize is the number of threads per warp.
const WarpSize = 32

// maxWarpsPerCTA is the most warps a thread block can have: 1024 threads.
const maxWarpsPerCTA = 1024 / WarpSize

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

// Machine executes PTX kernels against a device memory image.
type Machine struct {
	bugs    BugSet
	progKey any // bugs, boxed once: the key of this machine's programs on a kernel (decode.go)
	Mem     *device.Memory
	Tex     *device.TextureRegistry

	cov *Coverage
	rec *memRecorder // non-nil only inside CaptureGrid (memo.go)
	// observe is ObserveGrid's per-step callback, nil outside it, and
	// observed the StepInfo RunCTA steps into while it is set: on the
	// Machine, because a pointer to RunCTA's own scratch handed to a func
	// value would move that scratch to the heap on every functional path.
	observe  func(*StepInfo)
	observed StepInfo

	warpCeiling int64 // maxWarpInstrs; tests lower it (export_test.go)
	// ctaOrder, when set, is the order RunGrid visits a launch's n blocks
	// in, a permutation of 0..n-1; nil (block order) outside the tests
	// that set it (export_test.go).
	ctaOrder func(n int) []int

	// free holds the storage of the last CTA RunGrid ran, for the next
	// one: at most one CTA's worth.
	free FreeList
}

// NewMachine creates a functional machine over the given memory image and
// texture registry (either may be shared with a runtime context).
func NewMachine(bugs BugSet, mem *device.Memory, tex *device.TextureRegistry) *Machine {
	return &Machine{bugs: bugs, progKey: bugs, Mem: mem, Tex: tex, cov: &Coverage{}, warpCeiling: maxWarpInstrs,
		free: NewFreeList(maxWarpsPerCTA)}
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
	prog    *program // Kernel lowered under machine's BugSet
}

// NewGrid prepares a launch. The parameter buffer must match the kernel's
// parameter layout (see cudart for the marshalling helpers). The first
// launch of a kernel under a BugSet lowers it (decode.go).
func (m *Machine) NewGrid(k *ptx.Kernel, gridDim, blockDim Dim3, params []byte, sharedDyn int) (*Grid, error) {
	if k == nil {
		return nil, fmt.Errorf("exec: nil kernel")
	}
	if gridDim.X < 0 || gridDim.Y < 0 || gridDim.Z < 0 || blockDim.X < 0 || blockDim.Y < 0 || blockDim.Z < 0 {
		return nil, fmt.Errorf("exec: invalid configuration: grid %v, block %v has a negative dimension", gridDim, blockDim)
	}
	if blockDim.Count() > maxWarpsPerCTA*WarpSize {
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

// RegRows returns the register rows each warp of the grid holds: the
// length of a scoreboard over IssueTable's rows.
func (g *Grid) RegRows() int { return g.prog.rows }

// RegMap returns the row each register slot of the grid's kernel is
// allocated onto, -1 for a slot no instruction names: lane l of slot s
// is Warp.Regs[RegMap()[s]*WarpSize+l]. The slice is shared; do not
// modify it.
func (g *Grid) RegMap() []int32 { return g.prog.row }

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
	// Regs holds raw register bits, laid out row-major:
	// Regs[row*WarpSize+lane]. The decoder maps each register slot to a
	// row (regalloc.go); Grid.RegRows rows in all.
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
// Its storage comes from free when that holds any, from the heap
// otherwise (a nil or empty free list is the allocate-everything case);
// either way Reset alone defines the state.
func (g *Grid) InitCTA(i int, free *FreeList) *CTA {
	k := g.Kernel
	nThreads := g.BlockDim.Count()
	cta := &CTA{Grid: g, Shared: free.shared(g.SharedBytes()), Warps: make([]*Warp, g.NumWarpsPerCTA())}
	for wi := range cta.Warps {
		w := free.warp()
		w.ID = wi
		w.Regs = resize(w.Regs, g.prog.rows*WarpSize)
		lanes := min(nThreads-wi*WarpSize, WarpSize)
		w.InitMask = uint32(uint64(1)<<lanes - 1)
		w.Locals = w.Locals[:0]
		if k.LocalBytes > 0 {
			w.Locals = resize(w.Locals, WarpSize)
			for l := range w.Locals {
				n := 0
				if w.InitMask&(1<<l) != 0 {
					n = k.LocalBytes
				}
				w.Locals[l] = resize(w.Locals[l], n)
			}
		}
		cta.Warps[wi] = w
	}
	cta.Reset(i)
	return cta
}

// resize returns s resliced to n elements when its capacity allows,
// a new slice otherwise; the contents are Reset's business.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// FreeList keeps the storage of retired CTAs — warps, each with its
// register file, SIMT stack and local memory, and shared-memory buffers —
// for the next CTA of any grid: InitCTA reslices a warp's buffers when
// their capacity is enough and reallocates only those that are too
// small, so the list holds no shape. It keeps at most max warps and as
// many shared buffers. The zero value keeps nothing; it allocates
// nothing until the first Put. Not safe for concurrent use.
type FreeList struct {
	warps   []*Warp
	shareds [][]byte
	max     int
}

// NewFreeList returns an empty free list that keeps at most maxWarps
// warps.
func NewFreeList(maxWarps int) FreeList { return FreeList{max: maxWarps} }

// Put hands a retired CTA's storage to the list, keeping what fits under
// its cap. The caller gives up c: nothing may step or read it afterwards.
func (f *FreeList) Put(c *CTA) {
	for _, w := range c.Warps {
		if len(f.warps) == f.max {
			break
		}
		f.warps = append(f.warps, w)
	}
	if cap(c.Shared) > 0 && len(f.shareds) < f.max {
		f.shareds = append(f.shareds, c.Shared)
	}
}

// warp takes a warp off the list, or allocates one.
func (f *FreeList) warp() *Warp {
	if f == nil || len(f.warps) == 0 {
		return &Warp{Stack: make([]StackEntry, 0, 4)}
	}
	n := len(f.warps) - 1
	w := f.warps[n]
	f.warps[n] = nil
	f.warps = f.warps[:n]
	return w
}

// shared returns an n-byte shared-memory buffer: the list's last one,
// resliced, or a new one when the list is empty or that one too small
// (which it drops).
func (f *FreeList) shared(n int) []byte {
	if n == 0 {
		return nil
	}
	if f == nil || len(f.shareds) == 0 {
		return make([]byte, n)
	}
	last := len(f.shareds) - 1
	b := f.shareds[last]
	f.shareds[last] = nil
	f.shareds = f.shareds[:last]
	return resize(b, n)
}

// Reset puts the CTA in the state of block index i about to issue: the
// one place CTA state is defined, for fresh and recycled storage alike.
// Every block of a grid has the same shape, so whoever runs blocks one
// after another (RunGrid, the timing dispatcher) resets a finished CTA
// for the next block instead of building one.
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
		return uint64(F32ToHalf(f32Odd(f)))
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
