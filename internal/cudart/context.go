// Package cudart is the CUDA-runtime analog the paper's workloads call
// into: device memory management, per-PTX-file module registration (the
// §III-A fix), kernel launches via both the runtime (cudaLaunch) and
// driver (cuLaunchKernel) APIs, streams and events including
// cudaStreamWaitEvent (§III-B), and the texture-binding APIs (§III-C).
//
// Execution is pluggable: the default Runner performs fast functional
// simulation; internal/timing provides the cycle-level performance model
// (the paper's "Performance simulation mode").
package cudart

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// KernelStats summarises one kernel execution.
type KernelStats struct {
	Name       string
	LaunchID   int
	GridDim    exec.Dim3
	BlockDim   exec.Dim3
	Cycles     uint64 // 0 in functional mode
	WarpInstrs uint64

	// Per-kernel memory-system counters, attributed by the timing
	// engine's partition shards (all 0 in functional mode): L2 outcomes,
	// DRAM demand traffic and row-buffer locality, and cycles this
	// kernel's segments spent stalled on partition ingress/port/MSHR
	// reservations.
	L2Accesses     uint64
	L2Hits         uint64
	L2Misses       uint64
	DRAMAccesses   uint64
	DRAMRowHits    uint64
	MemStallCycles uint64

	// OracleSegments sums exec.StepInfo.Segments over the launch's memory
	// instructions: the traffic the hardware oracle (internal/hwmodel)
	// scores. Counted by the timing engine's cores, memoized under replay;
	// 0 in functional mode. A uint32 shares its word with Replayed, so the
	// launch log, one record per launch, did not grow with it. It wraps
	// past 2^32 segments in one launch, at least 2^27 memory warp
	// instructions; LeNet's largest launch counts 335,104.
	OracleSegments uint32

	// Replayed marks a launch the timing engine retired from its hybrid
	// replay cache (Config.ReplayEnabled): Cycles and the memory counters
	// above are memoized from an earlier identical launch rather than
	// freshly simulated. Always false in functional and detailed modes.
	Replayed bool
}

// Runner executes a prepared grid. Functional and timing modes implement
// this interface.
type Runner interface {
	RunKernel(g *exec.Grid) (KernelStats, error)
}

// AsyncTicket is a handle to a kernel submitted to a StreamRunner; its
// statistics become available after the runner drains.
type AsyncTicket interface {
	// Stats returns the kernel's statistics once drained, or the
	// simulation error if the kernel failed.
	Stats() (KernelStats, error)
	// Done reports whether the operation has retired.
	Done() bool
}

// StreamRunner is the optional interface of runners that model
// concurrent multi-kernel stream execution (the detailed timing engine).
// When a context's runner implements it, launches and async copies on
// non-default streams are queued on the runner and simulated
// concurrently at the next synchronisation point. Modelled time is the
// runner's to report (timing.Engine.Cycle); a context keeps no clock.
type StreamRunner interface {
	Runner
	// SubmitKernel queues a launch on a stream without running it.
	SubmitKernel(g *exec.Grid, stream int) (AsyncTicket, error)
	// SubmitCopy queues an n-byte host-device transfer on a stream;
	// apply performs the functional memory effect when the modelled
	// transfer completes. The ticket's Stats().Cycles reports the
	// transfer's copy-engine occupancy.
	SubmitCopy(stream, bytes int, apply func()) AsyncTicket
	// DrainAll simulates until every queued operation has retired.
	DrainAll() error
}

// FunctionalRunner runs grids in the fast functional mode (no timing).
type FunctionalRunner struct{}

// RunKernel implements Runner.
func (FunctionalRunner) RunKernel(g *exec.Grid) (KernelStats, error) {
	var before uint64
	m := g.Machine()
	before = m.Coverage().Total()
	if err := m.RunGrid(g); err != nil {
		return KernelStats{}, err
	}
	return KernelStats{
		Name: g.Kernel.Name, GridDim: g.GridDim, BlockDim: g.BlockDim,
		WarpInstrs: m.Coverage().Total() - before,
	}, nil
}

// LaunchRecord captures everything needed to replay a kernel launch in
// isolation — the data the paper's debug flow saves ("the data which is
// being copied to the GPU before a kernel is launched, along with the
// parameters passed into the kernel"), see Fig. 2.
type LaunchRecord struct {
	Module   *ptx.Module
	Kernel   string
	GridDim  exec.Dim3
	BlockDim exec.Dim3
	Shared   int
	Params   []byte
	// API is the high-level library call this launch belongs to (e.g.
	// "cudnnConvolutionForward"); the debug flow's first bisection level.
	API string
	// Buffers snapshots each live allocation reachable from a pointer-
	// sized parameter: base address -> contents at launch time.
	Buffers map[uint64][]byte
	// BuffersAfter snapshots the same allocations after the kernel ran.
	BuffersAfter map[uint64][]byte
}

// Context is a CUDA context: memory, modules, streams, events, textures.
type Context struct {
	Mem   *device.Memory
	Alloc *device.Allocator
	Tex   *device.TextureRegistry
	M     *exec.Machine

	runner  Runner
	modules []*ptx.Module
	// kernels remembers what LookupKernel resolved a name to, so a launch
	// walks the modules' maps once per name, not once per launch.
	kernels map[string]kernelRef

	streams     map[Stream]bool // live handles; streams and events only order work
	events      map[Event]bool
	nextStream  Stream
	nextEvent   Event
	launchCount int
	capture     bool
	apiTag      string
	captureLog  []*LaunchRecord
	log         kernelLog
	texRefs     map[string]*device.TexRef // host texref handles by symbol

	// async operations queued on a StreamRunner, awaiting a sync point
	pending  []pendingLaunch
	asyncErr error // sticky first failure of a drained batch
}

// kernelRef is a kernel and the module that defines it.
type kernelRef struct {
	mod *ptx.Module
	k   *ptx.Kernel
}

// pendingLaunch tracks one async operation: the runner's ticket plus,
// for kernels, the launch-ordered slot reserved in the kernel stats log
// (logIdx is -1 for copies, which have no log entry).
type pendingLaunch struct {
	ticket AsyncTicket
	logIdx int
}

// NewContext creates a context with a fresh device and functional runner.
func NewContext(bugs exec.BugSet) *Context {
	mem := device.NewMemory()
	tex := device.NewTextureRegistry()
	c := &Context{
		Mem:     mem,
		Alloc:   device.NewAllocator(),
		Tex:     tex,
		M:       exec.NewMachine(exec.Config{Bugs: bugs}, mem, tex),
		runner:  FunctionalRunner{},
		kernels: make(map[string]kernelRef),
		streams: map[Stream]bool{DefaultStream: true},
		events:  make(map[Event]bool),
		texRefs: make(map[string]*device.TexRef),
	}
	return c
}

// SetRunner installs a Runner (e.g. the timing model). The paper's
// checkpoint flow switches a context from functional to performance mode.
func (c *Context) SetRunner(r Runner) { c.runner = r }

// RegisterModule parses one PTX translation unit and registers its
// kernels. Each embedded PTX file of a library must be registered with a
// separate call — GPGPU-Sim originally merged all PTX into one file and
// failed on cuDNN's duplicate symbol names (paper §III-A); keeping modules
// separate is the fix.
func (c *Context) RegisterModule(src string) (*ptx.Module, error) {
	m, err := ptx.Parse(src)
	if err != nil {
		return nil, err
	}
	c.RegisterParsed(m)
	return m, nil
}

// RegisterParsed registers an already parsed translation unit. The
// context only reads it, so one parsed module can be registered with
// any number of contexts (the kernel library is: kernels.ParsedModules).
func (c *Context) RegisterParsed(m *ptx.Module) {
	c.modules = append(c.modules, m)
	for _, name := range m.Textures {
		if _, ok := c.texRefs[name]; !ok {
			ref := &device.TexRef{}
			c.Tex.RegisterTexture(name, ref)
			c.texRefs[name] = ref
		}
	}
}

// LookupKernel finds a kernel by name, searching modules in registration
// order (first match wins; use cuLaunchKernel with an explicit module to
// disambiguate duplicates). A match is remembered: registration only
// appends, so the first module that defines a name stays the first.
func (c *Context) LookupKernel(name string) (*ptx.Module, *ptx.Kernel, error) {
	if ref, ok := c.kernels[name]; ok {
		return ref.mod, ref.k, nil
	}
	for _, m := range c.modules {
		if k, ok := m.Kernels[name]; ok {
			c.kernels[name] = kernelRef{m, k}
			return m, k, nil
		}
	}
	return nil, nil, fmt.Errorf("cudart: no kernel named %q in %d registered modules", name, len(c.modules))
}

// drainPending runs every queued async operation to completion on the
// StreamRunner and folds the per-kernel statistics into their reserved
// slots of the launch-ordered stats log. The first failure is returned
// and kept sticky (CUDA-style) for the next explicit synchronisation
// call. A no-op for functional runners and when nothing is pending.
func (c *Context) drainPending() error {
	sr, ok := c.runner.(StreamRunner)
	if !ok || len(c.pending) == 0 {
		return nil
	}
	err := sr.DrainAll()
	for _, p := range c.pending {
		st, serr := p.ticket.Stats()
		if serr != nil {
			if err == nil {
				err = serr
			}
			continue
		}
		if p.logIdx >= 0 {
			c.log.fill(p.logIdx, st)
		}
	}
	clear(c.pending) // the backing array must not keep drained tickets alive
	c.pending = c.pending[:0]
	if err != nil && c.asyncErr == nil {
		c.asyncErr = err
	}
	return err
}

// Malloc allocates device memory (cudaMalloc).
func (c *Context) Malloc(size uint64) (uint64, error) {
	return c.Alloc.Alloc(size)
}

// Free releases device memory (cudaFree). Like the real call it is
// device-synchronizing: queued async kernels may still reference the
// allocation, so they drain first (any failure stays sticky for the
// next explicit synchronisation call).
func (c *Context) Free(addr uint64) error {
	_ = c.drainPending()
	return c.Alloc.Free(addr)
}

// MemcpyHtoD copies host bytes to device (cudaMemcpy HostToDevice). It
// is device-synchronizing: queued async work drains first; a deferred
// async failure stays sticky and surfaces at the next StreamSynchronize
// or DeviceSynchronize call.
func (c *Context) MemcpyHtoD(dst uint64, src []byte) {
	_ = c.drainPending()
	c.Mem.Write(dst, src)
}

// MemcpyDtoH copies device bytes to host. Like MemcpyHtoD it drains
// queued async work first; check StreamSynchronize or DeviceSynchronize
// for deferred failures before trusting the data.
func (c *Context) MemcpyDtoH(dst []byte, src uint64) {
	_ = c.drainPending()
	c.Mem.Read(src, dst)
}

// Memset fills n bytes at dst with value b (cudaMemset). Like the sync
// copies it is device-synchronizing, so queued async work drains first.
func (c *Context) Memset(dst uint64, b byte, n int) {
	_ = c.drainPending()
	buf := make([]byte, n)
	if b != 0 {
		for i := range buf {
			buf[i] = b
		}
	}
	c.Mem.Write(dst, buf)
}

// MemcpyF32HtoD writes a []float32 to the device.
func (c *Context) MemcpyF32HtoD(dst uint64, src []float32) {
	buf := make([]byte, 4*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	c.MemcpyHtoD(dst, buf)
}

// MemcpyF32DtoH reads n float32 values from the device.
func (c *Context) MemcpyF32DtoH(src uint64, n int) []float32 {
	buf := make([]byte, 4*n)
	c.MemcpyDtoH(buf, src)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// CaptureLaunches toggles launch capture for the debug tool.
func (c *Context) CaptureLaunches(on bool) { c.capture = on }

// SetAPITag labels subsequent launches with the high-level library call
// they implement; the cudnn layer sets this on every public entry point.
func (c *Context) SetAPITag(tag string) { c.apiTag = tag }

// CapturedLaunches returns the captured launch records.
func (c *Context) CapturedLaunches() []*LaunchRecord { return c.captureLog }

// KernelStatsLog returns per-kernel stats in launch order, draining any
// queued async launches first so every entry is final. The slice is
// built once and returned again until the next launch or drain changes
// the log.
func (c *Context) KernelStatsLog() []KernelStats {
	_ = c.drainPending()
	return c.log.all()
}
