package exec

// Functional-effect memoization for repeated kernel launches (the
// timing engine's hybrid replay mode, internal/timing/replay.go).
//
// A PTX kernel under this interpreter is a deterministic function of its
// launch description (kernel, dims, params — all covered by the replay
// signature) and the global-memory bytes it reads: shared and local
// memory start zeroed every execution, special registers depend only on
// geometry, and %clock is the warp's own instruction count. So if every
// byte a captured execution read (before writing it) still holds the
// value it held at capture time, re-running the kernel would retrace the
// exact same path and produce the exact same writes — and the re-run can
// be replaced by re-applying the recorded write-set. CaptureGrid records
// that read-before-write set and the final written bytes while running a
// grid; GridMemo.Matches checks the read-set against current memory and
// GridMemo.Apply commits the writes.
//
// Texture fetches read CUDA arrays, which live outside the recorded
// device.Memory — a capture that touches a texture returns no memo
// (callers fall back to plain re-execution) rather than risk validating
// against stale array contents.

import (
	"math/bits"
	"slices"

	"repro/internal/device"
)

// memoPageSize is the shadow-page granularity of the capture recorder: the
// device page size, so a page-resolved access lands in one shadow page.
const memoPageSize = device.PageSize

// byteMask has one bit per byte of a shadow page, 64 bytes to a word, so a
// naturally aligned access of up to 64 bytes is one mask operation.
type byteMask [memoPageSize / 64]uint64

// memoPage shadows one page of global memory during capture: which bytes
// the execution has written, which it has recorded as read-before-write,
// and the observed/final values of each.
type memoPage struct {
	written  byteMask
	readRec  byteMask
	readVal  [memoPageSize]byte
	writeVal [memoPageSize]byte
}

// memRecorder is attached to a Machine for the duration of one
// CaptureGrid call. The interpreter is single-goroutine, so no locking.
type memRecorder struct {
	pages   map[uint64]*memoPage
	lastPN  uint64 // the page most recently touched, and its shadow
	last    *memoPage
	unsound bool // touched state the memo cannot validate (textures)
}

func (r *memRecorder) page(pn uint64) *memoPage {
	if r.last != nil && r.lastPN == pn {
		return r.last
	}
	p := r.pages[pn]
	if p == nil {
		p = &memoPage{}
		r.pages[pn] = p
	}
	r.lastPN, r.last = pn, p
	return p
}

// chunk locates the leading part of an n-byte access at addr that falls in
// one mask word: its shadow page, byte offset in the page, length, mask
// word index and the mask of its bytes within that word.
func (r *memRecorder) chunk(addr uint64, n int) (p *memoPage, off, ln int, word int, m uint64) {
	off = int(addr % memoPageSize)
	bit := off % 64
	ln = min(64-bit, n)
	return r.page(addr / memoPageSize), off, ln, off / 64, ^uint64(0) >> (64 - ln) << bit
}

// recordRead marks buf's bytes as read-before-write unless the execution
// already wrote (or already recorded) them.
func (r *memRecorder) recordRead(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p, off, n, word, m := r.chunk(addr, len(buf))
		switch need := m &^ (p.written[word] | p.readRec[word]); need {
		case 0:
		case m:
			copy(p.readVal[off:], buf[:n])
			p.readRec[word] |= m
		default:
			p.readRec[word] |= need
			for need >>= off % 64; need != 0; need &= need - 1 {
				i := bits.TrailingZeros64(need)
				p.readVal[off+i] = buf[i]
			}
		}
		buf, addr = buf[n:], addr+uint64(n)
	}
}

// recordWrite marks buf's bytes written and remembers their final value.
func (r *memRecorder) recordWrite(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p, off, n, word, m := r.chunk(addr, len(buf))
		p.written[word] |= m
		copy(p.writeVal[off:], buf[:n])
		buf, addr = buf[n:], addr+uint64(n)
	}
}

// memSpan is a contiguous run of recorded bytes.
type memSpan struct {
	addr uint64
	data []byte
}

// GridMemo is one launch's captured global-memory effect: the bytes it
// read before writing (with their observed values) and the bytes it
// wrote (with their final values), both as sorted coalesced spans.
type GridMemo struct {
	reads     []memSpan
	writes    []memSpan
	readBytes int // total length of reads
}

// spans converts one shadow bitmap into coalesced spans.
func spans(pn uint64, mask *byteMask, vals *[memoPageSize]byte, out []memSpan) []memSpan {
	base := pn * memoPageSize
	for off := 0; off < memoPageSize; {
		// skip to the next marked byte, a whole mask word at a time
		w := mask[off/64] >> (off % 64)
		if w == 0 {
			off = (off | 63) + 1
			continue
		}
		off += bits.TrailingZeros64(w)
		start := off
		// extend over the run of marked bytes, which may cross words
		for off < memoPageSize {
			// the zeros the shift brings in at the top stop the count at
			// the word boundary
			room := 64 - off%64
			run := bits.TrailingZeros64(^(mask[off/64] >> (off % 64)))
			off += run
			if run < room {
				break
			}
		}
		// merge with the previous span when pages abut
		if n := len(out); n > 0 && out[n-1].addr+uint64(len(out[n-1].data)) == base+uint64(start) {
			out[n-1].data = append(out[n-1].data, vals[start:off]...)
		} else {
			out = append(out, memSpan{addr: base + uint64(start), data: append([]byte(nil), vals[start:off]...)})
		}
	}
	return out
}

// memo freezes the recorder into a GridMemo (nil when unsound).
func (r *memRecorder) memo() *GridMemo {
	if r.unsound {
		return nil
	}
	pns := make([]uint64, 0, len(r.pages))
	for pn := range r.pages {
		pns = append(pns, pn)
	}
	// sorted page order keeps spans sorted and mergeable across pages
	slices.Sort(pns)
	mo := &GridMemo{}
	for _, pn := range pns {
		p := r.pages[pn]
		mo.reads = spans(pn, &p.readRec, &p.readVal, mo.reads)
		mo.writes = spans(pn, &p.written, &p.writeVal, mo.writes)
	}
	for _, s := range mo.reads {
		mo.readBytes += len(s.data)
	}
	return mo
}

// Matches reports whether every byte the captured execution read still
// holds its captured value — the soundness condition for Apply.
func (mo *GridMemo) Matches(m *Machine) bool {
	for _, s := range mo.reads {
		if !m.Mem.Equal(s.addr, s.data) {
			return false
		}
	}
	return true
}

// ReadBytes returns the size of the read-set: what Matches compares at
// most.
func (mo *GridMemo) ReadBytes() int { return mo.readBytes }

// Apply commits the captured write-set, reproducing the execution's
// global-memory effect without re-interpreting the kernel. Only sound
// when Matches just returned true on the same memory image.
func (mo *GridMemo) Apply(m *Machine) {
	for _, s := range mo.writes {
		m.Mem.Write(s.addr, s.data)
	}
}

// ComposeMemos folds the memos of launches that execute back to back, in
// that order, into the memo of the whole sequence: the capture recorder
// run over the members' recorded effects instead of over an execution.
// A byte one member wrote before a later member read it is not an input
// of the sequence and drops out of the read-set; a byte several members
// read (the weights) is validated once; a byte written more than once
// keeps its last value. The members must be consistent with one another
// — each one just matched, in this order, on one memory image — which is
// what makes a match of the composition imply that every member would
// have matched in its turn. Nil when any member is nil: a launch capture
// could not memoize makes the sequence unmemoizable.
func ComposeMemos(memos []*GridMemo) *GridMemo {
	r := &memRecorder{pages: make(map[uint64]*memoPage)}
	for _, mo := range memos {
		if mo == nil {
			return nil
		}
		for _, s := range mo.reads {
			r.recordRead(s.addr, s.data)
		}
		for _, s := range mo.writes {
			r.recordWrite(s.addr, s.data)
		}
	}
	return r.memo()
}

// CaptureGrid runs the grid functionally (semantics identical to
// RunGrid) while recording its global-memory effect. The returned memo
// is nil — with no error — when the execution touched state the memo
// cannot validate (texture fetches); the grid still executed fully.
func (m *Machine) CaptureGrid(g *Grid) (*GridMemo, error) {
	r := &memRecorder{pages: make(map[uint64]*memoPage)}
	m.rec = r
	err := m.RunGrid(g)
	m.rec = nil
	if err != nil {
		return nil, err
	}
	return r.memo(), nil
}
