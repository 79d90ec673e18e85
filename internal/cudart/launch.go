package cudart

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
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
// A launch on a non-default stream is asynchronous: it queues on the
// runner (in performance mode, in the detailed model, where it executes
// concurrently with work on other streams at the next synchronisation
// point). The returned KernelStats then carries only the launch identity
// (zero cycles); final numbers appear in KernelStatsLog after a sync.
// Default-stream launches keep the legacy device-synchronizing semantics
// and run to completion immediately.
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

	// The legacy default stream is device-synchronizing: queued work
	// drains before the launch, and the launch drains before it returns,
	// its failure its own rather than sticky. Launch capture needs
	// before/after buffer snapshots, so it synchronises too.
	sync := s == DefaultStream || c.capture
	if sync {
		if err := c.drainPending(); err != nil {
			return KernelStats{}, err
		}
	}
	id := c.launchCount
	c.launchCount++

	var rec *LaunchRecord
	if c.capture {
		rec = c.captureLaunch(mod, k, grid, block, rawParams, sharedBytes)
	}

	stats := KernelStats{Name: k.Name, LaunchID: id, GridDim: grid, BlockDim: block}
	tk, err := c.runner.SubmitKernel(g, int(s))
	if err == nil {
		i := c.log.add(stats)
		c.pending = append(c.pending, pendingLaunch{ticket: tk, logIdx: i})
		if !sync {
			return stats, nil
		}
		if err = c.drain(); err == nil {
			stats = c.log.at(i)
		} else {
			c.log.drop() // a failed synchronous launch leaves no record
		}
	}
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
		return KernelStats{}, fmt.Errorf("cudart: kernel %s (launch %d): %w", k.Name, id, err)
	}
	return stats, nil
}

// logChunk is how many entries, and how many distinct records, one chunk
// of the kernel log holds.
const logChunk = 1024

// logEntry is one launch's place in the log: its id and the index of its
// record in the table of distinct records. It holds no pointer.
type logEntry struct {
	id  int
	rec int32
}

// kernelLog is the launch-ordered stats log. A long replayed run logs
// hundreds of thousands of launches whose records repeat a few thousand
// distinct ones, so the log interns them: recs holds each distinct
// record once, LaunchID zeroed, and every launch costs one pointer-free
// entry naming its id and its record. Records and entries go into
// fixed-size chunks, which are never copied once allocated and are not
// marked by a collection unless they hold pointers. index finds a
// record's twin: an open-addressed table of record index+1 (0 is an empty
// slot) keyed by maphash.Comparable and checked with ==, so no key is
// stored twice. A placeholder is filled by re-pointing its entry.
type kernelLog struct {
	recs    [][]KernelStats
	nrec    int
	index   []int32
	seed    maphash.Seed
	entries [][]logEntry
	n       int
}

// record returns distinct record r.
func (l *kernelLog) record(r int32) *KernelStats { return &l.recs[r/logChunk][r%logChunk] }

// entry returns launch entry i.
func (l *kernelLog) entry(i int) *logEntry { return &l.entries[i/logChunk][i%logChunk] }

// intern returns the index of the distinct record equal to *st, whose
// LaunchID is zero, adding it if the table has none. The index keeps its
// load at or under three quarters, so it costs at most 32/3 bytes per
// distinct record.
func (l *kernelLog) intern(st *KernelStats) int32 {
	if 4*(l.nrec+1) > 3*len(l.index) {
		l.grow()
	}
	mask := len(l.index) - 1
	h := int(maphash.Comparable(l.seed, *st)) & mask
	for ; l.index[h] != 0; h = (h + 1) & mask {
		if r := l.index[h] - 1; *l.record(r) == *st {
			return r
		}
	}
	r := int32(l.nrec)
	if l.nrec == len(l.recs)*logChunk {
		l.recs = append(l.recs, make([]KernelStats, logChunk))
	}
	*l.record(r) = *st
	l.nrec++
	l.index[h] = r + 1
	return r
}

// grow doubles the index (64 slots at first) and re-inserts every record.
func (l *kernelLog) grow() {
	if l.index == nil {
		l.seed = maphash.MakeSeed()
	}
	l.index = make([]int32, max(64, 2*len(l.index)))
	mask := len(l.index) - 1
	for r := int32(0); int(r) < l.nrec; r++ {
		h := int(maphash.Comparable(l.seed, *l.record(r))) & mask
		for l.index[h] != 0 {
			h = (h + 1) & mask
		}
		l.index[h] = r + 1
	}
}

// add appends a launch's record and returns its index.
func (l *kernelLog) add(st KernelStats) int {
	i := l.n
	if i == len(l.entries)*logChunk {
		l.entries = append(l.entries, make([]logEntry, logChunk))
	}
	id := st.LaunchID
	st.LaunchID = 0
	*l.entry(i) = logEntry{id: id, rec: l.intern(&st)}
	l.n++
	return i
}

// at returns record i.
func (l *kernelLog) at(i int) KernelStats {
	e := l.entry(i)
	st := *l.record(e.rec)
	st.LaunchID = e.id
	return st
}

// drop removes the last record. Its distinct record stays in the table.
func (l *kernelLog) drop() {
	l.n--
}

// fill replaces record i with a drained launch's statistics, keeping the
// launch identity the placeholder was logged with.
func (l *kernelLog) fill(i int, st KernelStats) {
	e := l.entry(i)
	ph := l.record(e.rec)
	st.Name, st.GridDim, st.BlockDim = ph.Name, ph.GridDim, ph.BlockDim
	st.LaunchID = 0
	e.rec = l.intern(&st)
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
