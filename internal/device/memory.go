// Package device models the GPU device-side state that is independent of
// any particular kernel: the global memory image and allocator, the
// address-space windows used for generic addressing, and the texture
// machinery (texture names, texture references, cudaArrays) with the
// remapping semantics the paper's §III-C fixes introduced.
package device

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Address-space windows for generic addressing. A generic 64-bit address
// is classified by these windows, mirroring how GPGPU-Sim carves up its
// simulated address space.
const (
	SharedWindowBase = 0x0000_0000_0100_0000
	SharedWindowSize = 0x0000_0000_0100_0000 // 16 MiB
	LocalWindowBase  = 0x0000_0000_0200_0000
	LocalWindowSize  = 0x0000_0000_0100_0000 // 16 MiB
	GlobalBase       = 0x0000_0001_0000_0000
)

// InSharedWindow reports whether a generic address falls in the shared window.
func InSharedWindow(addr uint64) bool {
	return addr >= SharedWindowBase && addr < SharedWindowBase+SharedWindowSize
}

// InLocalWindow reports whether a generic address falls in the local window.
func InLocalWindow(addr uint64) bool {
	return addr >= LocalWindowBase && addr < LocalWindowBase+LocalWindowSize
}

// PageBits and PageSize give the granularity at which global memory
// becomes resident. They are exported so the interpreter can resolve a
// page once per run of same-page lanes (Memory.Page / Memory.Touch) and
// move the bytes itself.
const (
	PageBits = 12
	PageSize = 1 << PageBits
)

// Page is one resident page of global memory.
type Page [PageSize]byte

// The page table is a radix tree over the 52-bit page number: a 256-way
// root for the top 8 bits, then four 2048-way levels of 11 bits each, the
// last of which holds the pages. Every 64-bit address is valid; a tree
// that holds a few MiB costs tens of KiB of tables.
const (
	fanBits = 11
	fanMask = 1<<fanBits - 1
)

type table[T any] [1 << fanBits]atomic.Pointer[T]

type (
	level4 = table[Page]   // 8 MiB of address space
	level3 = table[level4] // 16 GiB
	level2 = table[level3] // 32 TiB
	level1 = table[level2] // 64 PiB
	level0 [1 << 8]atomic.Pointer[level1]
)

// Memory is a sparse, page-backed global memory image.
//
// Lookups are lock-free: every table slot and the root are atomically
// published pointers, so concurrent warps — the parallel timing engine
// steps SM cores on multiple goroutines — resolve resident pages without
// synchronising. The mutex serialises only the writers of the *table*:
// page fault-in, Snapshot and Restore. The page *contents* are
// intentionally unguarded: simulated threads of a data-race-free kernel
// touch disjoint bytes, and racy kernels are racy on real hardware too.
// Cross-CTA atomics are serialised by the timing engine itself
// (deferred-atomic drain), not here. Restore publishes a whole new tree,
// so it must not run while a kernel is executing.
type Memory struct {
	mu       sync.Mutex
	root     atomic.Pointer[level0]
	resident atomic.Int64 // pages faulted in
}

// NewMemory returns an empty global memory image.
func NewMemory() *Memory {
	m := &Memory{}
	m.root.Store(new(level0))
	return m
}

// Page returns the resident page with the given page number (address >>
// PageBits), or nil when nothing was ever written there — such memory
// reads as zero, and looking it up does not make it resident.
func (m *Memory) Page(pn uint64) *Page {
	t1 := m.root.Load()[uint8(pn>>(4*fanBits))].Load()
	if t1 == nil {
		return nil
	}
	t2 := t1[pn>>(3*fanBits)&fanMask].Load()
	if t2 == nil {
		return nil
	}
	t3 := t2[pn>>(2*fanBits)&fanMask].Load()
	if t3 == nil {
		return nil
	}
	t4 := t3[pn>>fanBits&fanMask].Load()
	if t4 == nil {
		return nil
	}
	return t4[pn&fanMask].Load()
}

// Touch returns the page with the given page number, faulting it in
// (zero-filled) when it is not resident yet.
func (m *Memory) Touch(pn uint64) *Page {
	if p := m.Page(pn); p != nil {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.root.Load().touch(pn, &m.resident)
}

// child returns the table or page a slot points to, creating it first
// when the slot is empty. Callers hold Memory.mu (or own the tree), so
// load-then-store cannot lose a concurrent creation; the atomic store is
// what publishes the new node to the lock-free readers.
func child[T any](slot *atomic.Pointer[T]) (p *T, created bool) {
	if p = slot.Load(); p != nil {
		return p, false
	}
	p = new(T)
	slot.Store(p)
	return p, true
}

func (t0 *level0) touch(pn uint64, resident *atomic.Int64) *Page {
	t1, _ := child(&t0[uint8(pn>>(4*fanBits))])
	t2, _ := child(&t1[pn>>(3*fanBits)&fanMask])
	t3, _ := child(&t2[pn>>(2*fanBits)&fanMask])
	t4, _ := child(&t3[pn>>fanBits&fanMask])
	p, created := child(&t4[pn&fanMask])
	if created {
		resident.Add(1)
	}
	return p
}

// Read copies len(buf) bytes starting at addr into buf. Unwritten memory
// reads as zero.
func (m *Memory) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if p := m.Page(addr >> PageBits); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Equal reports whether the len(buf) bytes starting at addr equal buf,
// comparing them where they are. Unwritten memory compares as zero.
func (m *Memory) Equal(addr uint64, buf []byte) bool {
	for len(buf) > 0 {
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		p := m.Page(addr >> PageBits)
		if p == nil {
			p = &zeroPage
		}
		if !bytes.Equal(p[off:off+n], buf[:n]) {
			return false
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return true
}

// zeroPage is what a page nothing was written to reads as.
var zeroPage Page

// Write copies buf into memory starting at addr.
func (m *Memory) Write(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		copy(m.Touch(addr >> PageBits)[off:off+n], buf[:n])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Load reads size (1/2/4/8) bytes at addr as little-endian raw bits.
func (m *Memory) Load(addr uint64, size int) uint64 {
	var b [8]byte
	m.Read(addr, b[:size])
	return binary.LittleEndian.Uint64(b[:])
}

// Store writes the low size bytes of bits at addr.
func (m *Memory) Store(addr uint64, bits uint64, size int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	m.Write(addr, b[:size])
}

// Snapshot serialises all touched pages (paper §III-F "Data2": global
// memory per kernel). Pages are emitted in sorted order for determinism.
type Snapshot struct {
	PageNums []uint64
	Pages    [][]byte
}

// each calls f for every non-empty slot in index order.
func each[T any](t []atomic.Pointer[T], f func(i uint64, p *T)) {
	for i := range t {
		if p := t[i].Load(); p != nil {
			f(uint64(i), p)
		}
	}
}

// Snapshot captures the current memory image.
func (m *Memory) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{}
	// an in-order walk visits page numbers in ascending order
	each(m.root.Load()[:], func(i0 uint64, t1 *level1) {
		each(t1[:], func(i1 uint64, t2 *level2) {
			each(t2[:], func(i2 uint64, t3 *level3) {
				each(t3[:], func(i3 uint64, t4 *level4) {
					each(t4[:], func(i4 uint64, p *Page) {
						pn := (((i0<<fanBits|i1)<<fanBits|i2)<<fanBits|i3)<<fanBits | i4
						s.PageNums = append(s.PageNums, pn)
						s.Pages = append(s.Pages, append([]byte(nil), p[:]...))
					})
				})
			})
		})
	})
	return s
}

// Restore replaces the memory image with the snapshot contents.
func (m *Memory) Restore(s *Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	root := new(level0)
	var resident atomic.Int64
	for i, pn := range s.PageNums {
		copy(root.touch(pn, &resident)[:], s.Pages[i])
	}
	m.resident.Store(resident.Load())
	m.root.Store(root)
}

// TouchedBytes returns the number of resident bytes (page granularity).
func (m *Memory) TouchedBytes() int {
	return int(m.resident.Load()) * PageSize
}

// Allocator is a simple first-fit device memory allocator handing out
// addresses above GlobalBase.
type Allocator struct {
	next  uint64
	sizes map[uint64]uint64
	free  []span // sorted free list
}

type span struct{ base, size uint64 }

// NewAllocator returns an allocator starting at GlobalBase.
func NewAllocator() *Allocator {
	return &Allocator{next: GlobalBase, sizes: make(map[uint64]uint64)}
}

const allocAlign = 256 // cudaMalloc guarantees 256-byte alignment

// Alloc reserves size bytes and returns the device address. A size whose
// alignment or placement would wrap the 64-bit address space is refused
// (cudaErrorMemoryAllocation) rather than handed out at a wrapped address.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("device: zero-byte allocation")
	}
	if size > ^uint64(allocAlign-1) {
		return 0, fmt.Errorf("device: allocation of %d bytes overflows the address space", size)
	}
	size = (size + allocAlign - 1) &^ uint64(allocAlign-1)
	for i, s := range a.free {
		if s.size >= size {
			addr := s.base
			if s.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = span{s.base + size, s.size - size}
			}
			a.sizes[addr] = size
			return addr, nil
		}
	}
	addr := a.next
	if addr+size < addr {
		return 0, fmt.Errorf("device: allocation of %d bytes at %#x overflows the address space", size, addr)
	}
	a.next += size
	a.sizes[addr] = size
	return addr, nil
}

// Free releases an allocation. Freeing an unknown address is an error,
// mirroring cudaErrorInvalidDevicePointer.
func (a *Allocator) Free(addr uint64) error {
	size, ok := a.sizes[addr]
	if !ok {
		return fmt.Errorf("device: free of unallocated address %#x", addr)
	}
	delete(a.sizes, addr)
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].base >= addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{addr, size}
	// coalesce neighbours
	if i+1 < len(a.free) && a.free[i].base+a.free[i].size == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+a.free[i-1].size == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the size of a live allocation containing addr, together
// with its base address. The debug tool uses this to discover candidate
// output buffers from kernel pointer arguments (paper §III-D: "we modified
// GPGPU-Sim to obtain the size of any GPU memory buffers pointed to by
// these pointers").
func (a *Allocator) SizeOf(addr uint64) (base, size uint64, ok bool) {
	for b, s := range a.sizes {
		if addr >= b && addr < b+s {
			return b, s, true
		}
	}
	return 0, 0, false
}

// LiveAllocations returns the bases of all live allocations, sorted.
func (a *Allocator) LiveAllocations() []uint64 {
	out := make([]uint64, 0, len(a.sizes))
	for b := range a.sizes {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
