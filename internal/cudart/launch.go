package cudart

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/ptx"
)

// Params builds a kernel parameter buffer with CUDA alignment rules.
// cuDNN-style kernels take pointers (u64), sizes (u32/s32) and scalars
// (f32); Append* mirror the host-side argument marshalling.
type Params struct {
	buf []byte
}

// paramsReserve is the capacity NewParams reserves: room for the largest
// parameter block of the kernel library (68 bytes), so marshalling a
// library launch allocates once and never grows the buffer.
const paramsReserve = 68

// NewParams returns an empty parameter buffer builder.
func NewParams() *Params { return &Params{buf: make([]byte, 0, paramsReserve)} }

func (p *Params) align(n int) {
	for len(p.buf)%n != 0 {
		p.buf = append(p.buf, 0)
	}
}

// Ptr appends a device pointer (u64).
func (p *Params) Ptr(addr uint64) *Params {
	p.align(8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], addr)
	p.buf = append(p.buf, b[:]...)
	return p
}

// U32 appends a 32-bit unsigned scalar.
func (p *Params) U32(v uint32) *Params {
	p.align(4)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.buf = append(p.buf, b[:]...)
	return p
}

// F32 appends a float scalar.
func (p *Params) F32(v float32) *Params { return p.U32(math.Float32bits(v)) }

// Bytes returns the marshalled buffer.
func (p *Params) Bytes() []byte { return p.buf }

// Launch launches a kernel by name through the runtime-API path
// (cudaLaunch). Grid and block dimensions follow CUDA's <<<grid, block>>>.
func (c *Context) Launch(name string, grid, block exec.Dim3, params *Params, sharedBytes int) (KernelStats, error) {
	return c.LaunchOnStream(DefaultStream, name, grid, block, params, sharedBytes)
}

// LaunchOnStream launches a kernel on a specific stream.
//
// With a StreamRunner installed (performance mode), a launch on a
// non-default stream is asynchronous: it queues in the detailed model
// and executes concurrently with work on other streams at the next
// synchronisation point. The returned KernelStats then carries only the
// launch identity (zero cycles); final numbers appear in KernelStatsLog
// after a sync. Default-stream launches keep the legacy
// device-synchronizing semantics and run to completion immediately.
func (c *Context) LaunchOnStream(s Stream, name string, grid, block exec.Dim3, params *Params, sharedBytes int) (KernelStats, error) {
	mod, k, err := c.LookupKernel(name)
	if err != nil {
		return KernelStats{}, err
	}
	return c.launch(s, mod, k, grid, block, params.Bytes(), sharedBytes)
}

// CuLaunchKernel is the driver-API launch path the paper added for its
// debugging tool (§III-B): it takes an explicit module handle, so kernels
// with duplicate names across PTX files can be launched unambiguously,
// and a raw parameter buffer, as when replaying captured launches.
func (c *Context) CuLaunchKernel(mod *ptx.Module, name string, grid, block exec.Dim3, rawParams []byte, sharedBytes int) (KernelStats, error) {
	k, ok := mod.Kernels[name]
	if !ok {
		return KernelStats{}, fmt.Errorf("cudart: module has no kernel %q", name)
	}
	return c.launch(DefaultStream, mod, k, grid, block, rawParams, sharedBytes)
}

func (c *Context) launch(s Stream, mod *ptx.Module, k *ptx.Kernel, grid, block exec.Dim3, rawParams []byte, sharedBytes int) (KernelStats, error) {
	if !c.streams[s] {
		return KernelStats{}, errBadStream(s)
	}
	g, err := c.M.NewGrid(k, grid, block, rawParams, sharedBytes)
	if err != nil {
		return KernelStats{}, err
	}

	// Concurrent-stream path: queue the launch in the detailed model and
	// reserve its slot in the launch-ordered stats log. Launch capture
	// needs before/after buffer snapshots, so it forces the sync path.
	if sr, async := c.runner.(StreamRunner); async && s != DefaultStream && !c.capture {
		tk, err := sr.SubmitKernel(g, int(s))
		if err != nil {
			return KernelStats{}, err
		}
		id := c.launchCount
		c.launchCount++
		ph := KernelStats{Name: k.Name, LaunchID: id, GridDim: grid, BlockDim: block}
		c.pending = append(c.pending, pendingLaunch{ticket: tk, logIdx: c.log.add(ph)})
		return ph, nil
	}

	// Synchronous path: the legacy default stream is device-synchronizing,
	// so any queued async work completes first.
	if err := c.drainPending(); err != nil {
		return KernelStats{}, err
	}
	id := c.launchCount
	c.launchCount++

	var rec *LaunchRecord
	if c.capture {
		rec = c.captureLaunch(mod, k, grid, block, rawParams, sharedBytes)
	}

	stats, err := c.runner.RunKernel(g)
	if rec != nil {
		// Snapshot the same buffers after execution so the debug tool can
		// bisect the first incorrectly-executing kernel (paper Fig. 2).
		rec.BuffersAfter = make(map[uint64][]byte, len(rec.Buffers))
		for base, before := range rec.Buffers {
			buf := make([]byte, len(before))
			c.Mem.Read(base, buf)
			rec.BuffersAfter[base] = buf
		}
	}
	if err != nil {
		return stats, fmt.Errorf("cudart: kernel %s (launch %d): %w", k.Name, id, err)
	}
	stats.Name = k.Name
	stats.LaunchID = id
	stats.GridDim = grid
	stats.BlockDim = block
	c.log.add(stats)
	return stats, nil
}

// logChunk is how many records one chunk of the kernel log holds.
const logChunk = 1024

// kernelLog is the launch-ordered stats log. A long replayed run logs
// hundreds of thousands of pointer-carrying records; one growing slice
// would be re-allocated, zeroed and copied as it grows, and marked whole
// by every collection. Records go into fixed-size chunks, which are never
// copied once allocated, and a placeholder is filled in place by its
// index. flat caches the contiguous view KernelStatsLog returns until
// the next append or fill.
type kernelLog struct {
	chunks [][]KernelStats
	n      int
	flat   []KernelStats
}

// add appends a record and returns its index.
func (l *kernelLog) add(st KernelStats) int {
	i := l.n
	if i%logChunk == 0 {
		l.chunks = append(l.chunks, make([]KernelStats, logChunk))
	}
	l.chunks[i/logChunk][i%logChunk] = st
	l.n++
	l.flat = nil
	return i
}

// fill replaces record i with a drained launch's statistics, keeping the
// name and launch id the placeholder was logged with.
func (l *kernelLog) fill(i int, st KernelStats) {
	slot := &l.chunks[i/logChunk][i%logChunk]
	st.Name, st.LaunchID = slot.Name, slot.LaunchID
	*slot = st
	l.flat = nil
}

// all returns every record in launch order as one slice (nil when empty).
func (l *kernelLog) all() []KernelStats {
	if l.flat == nil && l.n > 0 {
		l.flat = make([]KernelStats, 0, l.n)
		for _, ch := range l.chunks {
			l.flat = append(l.flat, ch[:min(logChunk, l.n-len(l.flat))]...)
		}
	}
	return l.flat
}

// captureLaunch snapshots the launch inputs: parameter bytes plus the
// contents of every allocation reachable from a pointer-sized parameter
// (Fig. 2's "capture and save all relevant data").
func (c *Context) captureLaunch(mod *ptx.Module, k *ptx.Kernel, grid, block exec.Dim3, rawParams []byte, shared int) *LaunchRecord {
	rec := &LaunchRecord{
		Module: mod, Kernel: k.Name, API: c.apiTag,
		GridDim: grid, BlockDim: block, Shared: shared,
		Params:  append([]byte(nil), rawParams...),
		Buffers: make(map[uint64][]byte),
	}
	for _, p := range k.Params {
		if p.Type != ptx.U64 && p.Type != ptx.B64 && p.Type != ptx.S64 {
			continue // only pointer-sized params may point at buffers
		}
		if p.Offset+8 > len(rawParams) {
			continue
		}
		addr := binary.LittleEndian.Uint64(rawParams[p.Offset:])
		base, size, ok := c.Alloc.SizeOf(addr)
		if !ok {
			continue
		}
		if _, done := rec.Buffers[base]; done {
			continue
		}
		buf := make([]byte, size)
		c.Mem.Read(base, buf)
		rec.Buffers[base] = buf
	}
	c.captureLog = append(c.captureLog, rec)
	return rec
}
