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

// NewParams returns an empty parameter buffer builder.
func NewParams() *Params { return &Params{} }

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

// I32 appends a 32-bit signed scalar.
func (p *Params) I32(v int32) *Params { return p.U32(uint32(v)) }

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
		c.logKernel(ph)
		c.pending = append(c.pending, pendingLaunch{ticket: tk, logIdx: len(c.kernelStats) - 1})
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
		rec = c.captureLaunch(id, mod, k, grid, block, rawParams, sharedBytes)
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
	c.logKernel(stats)
	if rec != nil {
		rec.Stats = stats
	}
	return stats, nil
}

// logKernel appends one record to the launch-ordered stats log, doubling
// the log's capacity when it is full. A long replayed run appends
// hundreds of thousands of pointer-carrying records, and append's 1.25x
// step for large slices re-allocates, zeroes and re-copies the log five
// times as often: moving it was a tenth of a warm replayed iteration.
func (c *Context) logKernel(st KernelStats) {
	if len(c.kernelStats) == cap(c.kernelStats) {
		grown := make([]KernelStats, len(c.kernelStats), max(64, 2*cap(c.kernelStats)))
		copy(grown, c.kernelStats)
		c.kernelStats = grown
	}
	c.kernelStats = append(c.kernelStats, st)
}

// captureLaunch snapshots the launch inputs: parameter bytes plus the
// contents of every allocation reachable from a pointer-sized parameter
// (Fig. 2's "capture and save all relevant data").
func (c *Context) captureLaunch(id int, mod *ptx.Module, k *ptx.Kernel, grid, block exec.Dim3, rawParams []byte, shared int) *LaunchRecord {
	rec := &LaunchRecord{
		LaunchID: id, Module: mod, Kernel: k.Name, API: c.apiTag,
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
