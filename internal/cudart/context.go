package cudart

import (
	"fmt"
	"iter"
	"slices"

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

	// The kernel's memory-system record, attributed by the timing
	// engine's partitions (all 0 in functional mode).
	MemCounters

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

// MemCounters is the per-kernel record of the shared memory system: L2
// outcomes, DRAM demand traffic and row-buffer locality, and the latency
// and back-pressure its segments saw. It is the one record type of the
// timing engine's counter ledger: each field is incremented at one site,
// into the record of the grid that issued the segment; a KernelStats, a
// replay entry and the engine totals embed or hold that record, assigned
// or summed, never counted again. Addition is commutative, so records
// can be summed in any order.
type MemCounters struct {
	L2Accesses   uint64 // also the partition-serviced segment count
	L2Hits       uint64
	DRAMAccesses uint64 // also the L2 demand misses, MSHR bypasses included
	DRAMRowHits  uint64
	// cycles segments waited on a partition ingress slot, L2 port or L2
	// MSHR reservation (the bandwidth-aware hierarchy's back-pressure)
	IngressStallCycles uint64
	SegCycles          uint64 // issue-to-response latency, summed over serviced segments
}

// Add sums another record into m.
func (m *MemCounters) Add(o MemCounters) {
	m.L2Accesses += o.L2Accesses
	m.L2Hits += o.L2Hits
	m.DRAMAccesses += o.DRAMAccesses
	m.DRAMRowHits += o.DRAMRowHits
	m.IngressStallCycles += o.IngressStallCycles
	m.SegCycles += o.SegCycles
}

// Runner executes a prepared grid to completion at the call: the bare
// form of a runner, which SetRunner puts behind the in-order adapter.
type Runner interface {
	RunKernel(g *exec.Grid) (KernelStats, error)
}

// AsyncTicket is a handle to an operation submitted to a StreamRunner.
type AsyncTicket interface {
	// Stats returns the operation's statistics once drained, or the
	// simulation error if it failed.
	Stats() (KernelStats, error)
}

// StreamRunner is what a context runs its work through: launches and
// copies submitted on streams finish by the next DrainAll. Modelled time
// is the runner's to report (timing.Engine.Cycle); a context keeps none.
type StreamRunner interface {
	// SubmitKernel queues a launch on a stream.
	SubmitKernel(g *exec.Grid, stream int) (AsyncTicket, error)
	// SubmitCopy queues an n-byte host-device transfer on a stream;
	// apply performs the functional memory effect when the modelled
	// transfer completes. The ticket's Stats().Cycles reports the
	// transfer's copy-engine occupancy.
	SubmitCopy(stream, bytes int, apply func()) AsyncTicket
	// DrainAll runs until every queued operation has retired.
	DrainAll() error
}

// inOrder is the StreamRunner a bare Runner runs behind: every kernel
// runs, and every copy applies, at its submit, whatever its stream, so
// nothing is ever left to drain.
type inOrder struct{ Runner }

func (r inOrder) SubmitKernel(g *exec.Grid, _ int) (AsyncTicket, error) {
	st, err := r.RunKernel(g)
	return ran(st), err
}

func (inOrder) SubmitCopy(_, _ int, apply func()) AsyncTicket {
	apply()
	return ran{}
}

func (inOrder) DrainAll() error { return nil }

// ran is the ticket of an operation that ran at its submit.
type ran KernelStats

func (t ran) Stats() (KernelStats, error) { return KernelStats(t), nil }

// FunctionalRunner runs grids in the fast functional mode (no timing).
type FunctionalRunner struct{}

// RunKernel implements Runner.
func (FunctionalRunner) RunKernel(g *exec.Grid) (KernelStats, error) {
	m := g.Machine()
	before := m.Coverage().Total()
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

	runner  StreamRunner
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

	// operations submitted to the runner, awaiting a sync point
	pending  []pendingLaunch
	asyncErr error // sticky first failure of a drained batch
}

// kernelRef is a kernel and the module that defines it.
type kernelRef struct {
	mod *ptx.Module
	k   *ptx.Kernel
}

// pendingLaunch tracks one submitted operation: the runner's ticket plus,
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
		runner:  inOrder{FunctionalRunner{}},
		kernels: make(map[string]kernelRef),
		streams: map[Stream]bool{DefaultStream: true},
		events:  make(map[Event]bool),
		texRefs: make(map[string]*device.TexRef),
	}
	return c
}

// SetRunner installs what runs the context's work (e.g. the timing
// model): a Runner that is also a StreamRunner as it is, a bare Runner
// behind the in-order adapter. The paper's checkpoint flow switches a
// context from functional to performance mode.
func (c *Context) SetRunner(r Runner) {
	if sr, ok := r.(StreamRunner); ok {
		c.runner = sr
		return
	}
	c.runner = inOrder{r}
}

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

// drainPending is drain for the synchronisation points: the first
// failure is also kept sticky (CUDA-style) for the next explicit
// synchronisation call.
func (c *Context) drainPending() error {
	err := c.drain()
	if err != nil && c.asyncErr == nil {
		c.asyncErr = err
	}
	return err
}

// drain runs every submitted operation to completion on the runner and
// folds the per-kernel statistics into their reserved slots of the
// launch-ordered stats log. It returns the runner's failure or, failing
// that, the first failed operation's. A no-op when nothing is pending.
func (c *Context) drain() error {
	if len(c.pending) == 0 {
		return nil
	}
	err := c.runner.DrainAll()
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

// Memset fills n bytes at dst with value b (cudaMemset), in place. Like
// the sync copies it is device-synchronizing, so queued async work
// drains first. n <= 0 is an empty fill, as a 0-byte cudaMemset is.
func (c *Context) Memset(dst uint64, b byte, n int) {
	_ = c.drainPending()
	c.Mem.Fill(dst, b, n)
}

// MemcpyF32HtoD writes a []float32 to the device, encoding straight
// into device memory. It is device-synchronizing like MemcpyHtoD.
func (c *Context) MemcpyF32HtoD(dst uint64, src []float32) {
	_ = c.drainPending()
	c.Mem.WriteF32(dst, src)
}

// MemcpyF32DtoH reads n float32 values from the device, decoding
// straight out of device memory; the result is the only allocation. It
// drains queued async work first, like MemcpyDtoH. n <= 0 is an empty
// transfer, as a 0-byte cudaMemcpy is, and returns an empty slice.
func (c *Context) MemcpyF32DtoH(src uint64, n int) []float32 {
	_ = c.drainPending()
	out := make([]float32, max(n, 0))
	c.Mem.ReadF32(src, out)
	return out
}

// CaptureLaunches toggles launch capture for the debug tool.
func (c *Context) CaptureLaunches(on bool) { c.capture = on }

// SetAPITag labels subsequent launches with the high-level library call
// they implement; the cudnn layer sets this on every public entry point.
func (c *Context) SetAPITag(tag string) { c.apiTag = tag }

// CapturedLaunches returns the captured launch records.
func (c *Context) CapturedLaunches() []*LaunchRecord { return c.captureLog }

// KernelLog ranges over per-kernel stats in launch order, building no slice;
// ranging it drains any queued async launches first, so every record is final.
func (c *Context) KernelLog() iter.Seq[KernelStats] {
	return func(yield func(KernelStats) bool) {
		_ = c.drainPending()
		for i := range c.log.n {
			if !yield(c.log.at(i)) {
				return
			}
		}
	}
}

// KernelStatsLog returns KernelLog's records in a new exact-capacity slice.
func (c *Context) KernelStatsLog() []KernelStats {
	return slices.AppendSeq(make([]KernelStats, 0, c.KernelLogLen()), c.KernelLog())
}

// KernelLogLen returns the number of records KernelLog yields, draining
// any queued async launches first.
func (c *Context) KernelLogLen() int {
	_ = c.drainPending()
	return c.log.n
}
