package device

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

// TestStraddlingAccesses round-trips 8- and 16-byte values laid across a
// page boundary at every split point, through both the byte and the word
// entry points, next to far-apart addresses that share no table node.
func TestStraddlingAccesses(t *testing.T) {
	mem := NewMemory()
	for _, boundary := range []uint64{GlobalBase + PageSize, GlobalBase + 5*PageSize, 1 << 44, 1<<63 + PageSize, ^uint64(0) - PageSize + 1} {
		for _, n := range []int{8, 16} {
			for back := 1; back < n; back++ {
				addr := boundary - uint64(back)
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(0x40 + n + back + i)
				}
				mem.Write(addr, want)
				got := make([]byte, n)
				mem.Read(addr, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%d bytes at %#x: read %x, wrote %x", n, addr, got, want)
				}
				if n == 8 {
					if v := mem.Load(addr, 8); v != binary.LittleEndian.Uint64(want) {
						t.Fatalf("Load(%#x, 8) = %#x after writing %x", addr, v, want)
					}
					mem.Store(addr, 0x0102030405060708, 8)
					if v := mem.Load(addr, 8); v != 0x0102030405060708 {
						t.Fatalf("Store/Load across %#x: %#x", boundary, v)
					}
				}
			}
		}
	}
}

// TestZeroReadStaysNonResident: reading memory nothing wrote to returns
// zero through every entry point and faults no page in.
func TestZeroReadStaysNonResident(t *testing.T) {
	mem := NewMemory()
	mem.Store(GlobalBase, 1, 4)
	before := mem.TouchedBytes()
	if before != PageSize {
		t.Fatalf("one store made %d bytes resident, want one page", before)
	}
	buf := make([]byte, 3*PageSize)
	for _, addr := range []uint64{0, GlobalBase + 16*PageSize - 5, 0xDEAD_0000_0000, ^uint64(0) - 8} {
		if v := mem.Load(addr, 8); v != 0 {
			t.Errorf("Load(%#x) = %#x on untouched memory", addr, v)
		}
		n := uint64(len(buf))
		if toTop := -addr; toTop != 0 && toTop < n {
			n = toTop // stop at the top of the address space
		}
		mem.Read(addr, buf[:n])
		if !bytes.Equal(buf[:n], make([]byte, n)) {
			t.Errorf("Read(%#x) returned non-zero bytes from untouched memory", addr)
		}
		if mem.Page(addr>>PageBits) != nil {
			t.Errorf("page of %#x became resident by being read", addr)
		}
	}
	if got := mem.TouchedBytes(); got != before {
		t.Errorf("TouchedBytes went %d -> %d across zero reads", before, got)
	}
}

// TestSnapshotRestoreAfterGrowth snapshots a table that has grown across
// every level of the radix tree, scribbles over it (including pages the
// snapshot does not hold), and restores it.
func TestSnapshotRestoreAfterGrowth(t *testing.T) {
	mem := NewMemory()
	addrs := []uint64{
		0, GlobalBase, GlobalBase + PageSize, GlobalBase + 9<<20, // same leaf, next leaf
		GlobalBase + 20<<30, 1 << 40, 1 << 50, 1 << 57, ^uint64(0) - 7, // one new table per level
	}
	for i, a := range addrs {
		mem.Store(a, uint64(i)+1, 8)
	}
	snap := mem.Snapshot()
	if len(snap.PageNums) != len(addrs) || mem.TouchedBytes() != len(addrs)*PageSize {
		t.Fatalf("snapshot holds %d pages, %d bytes resident, want %d pages", len(snap.PageNums), mem.TouchedBytes(), len(addrs))
	}
	for i := 1; i < len(snap.PageNums); i++ {
		if snap.PageNums[i-1] >= snap.PageNums[i] {
			t.Fatalf("snapshot page numbers not ascending: %v", snap.PageNums)
		}
	}
	for _, a := range addrs {
		mem.Store(a, 0xBAD, 8)
	}
	mem.Store(GlobalBase+100<<20, 0xBAD, 8) // not in the snapshot
	mem.Restore(snap)
	for i, a := range addrs {
		if v := mem.Load(a, 8); v != uint64(i)+1 {
			t.Errorf("after restore, %#x holds %#x, want %d", a, v, i+1)
		}
	}
	if v := mem.Load(GlobalBase+100<<20, 8); v != 0 {
		t.Errorf("page written after the snapshot survived the restore: %#x", v)
	}
	if got := mem.TouchedBytes(); got != len(addrs)*PageSize {
		t.Errorf("TouchedBytes after restore = %d, want %d", got, len(addrs)*PageSize)
	}
	// the restored image owns its pages: the snapshot can be reused
	mem.Store(addrs[1], 77, 8)
	mem.Restore(snap)
	if v := mem.Load(addrs[1], 8); v != 2 {
		t.Errorf("second restore from the same snapshot read %#x", v)
	}
}

// TestConcurrentFaultIn has eight goroutines fault in the same fresh pages
// at once, each writing its own words of every page — the access pattern
// of CTAs on different cores storing to one buffer. Meaningful under
// -race: table slots are published atomically and page bytes are disjoint.
func TestConcurrentFaultIn(t *testing.T) {
	const workers, pages = 8, 64
	mem := NewMemory()
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < workers; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			for p := 0; p < pages; p++ {
				// spread the pages over several leaf tables
				base := GlobalBase + uint64(p)*PageSize + uint64(p%4)<<24
				for w := g; w < PageSize/8; w += workers {
					mem.Store(base+uint64(w)*8, uint64(p)<<32|uint64(w), 8)
				}
			}
		}(g)
	}
	start.Done()
	done.Wait()
	if got := mem.TouchedBytes(); got != pages*PageSize {
		t.Fatalf("%d bytes resident, want %d pages", got, pages)
	}
	for p := 0; p < pages; p++ {
		base := GlobalBase + uint64(p)*PageSize + uint64(p%4)<<24
		for w := 0; w < PageSize/8; w++ {
			if v := mem.Load(base+uint64(w)*8, 8); v != uint64(p)<<32|uint64(w) {
				t.Fatalf("page %d word %d = %#x", p, w, v)
			}
		}
	}
}

// BenchmarkMemoryLoadStore prices the per-word entry points the runtime
// and the benchmark's device.load_ns/store_ns probes use: a 4-byte sweep
// over a resident 1 MiB buffer.
func BenchmarkMemoryLoadStore(b *testing.B) {
	const size = 1 << 20
	mem := NewMemory()
	mem.Write(GlobalBase, make([]byte, size))
	b.Run("load", func(b *testing.B) {
		var sum uint64
		for i := 0; i < b.N; i++ {
			sum += mem.Load(GlobalBase+uint64(i*4)%size, 4)
		}
		sink = sum
	})
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mem.Store(GlobalBase+uint64(i*4)%size, uint64(i), 4)
		}
	})
	b.Run("read4k", func(b *testing.B) {
		buf := make([]byte, PageSize)
		b.SetBytes(PageSize)
		for i := 0; i < b.N; i++ {
			mem.Read(GlobalBase+uint64(i)*PageSize%size, buf)
		}
	})
}

// BenchmarkTypedTransfers prices the typed host transfers against the
// byte path they are views of: 16 MiB of float32 written into fresh and
// into resident pages, read back, and written as bytes.
func BenchmarkTypedTransfers(b *testing.B) {
	const size = 16 << 20
	vals := make([]float32, size/4)
	for i := range vals {
		vals[i] = float32(i) / 3
	}
	raw, _ := binary.Append(nil, binary.LittleEndian, vals)
	resident := NewMemory()
	resident.Write(GlobalBase, raw)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"WriteF32 fresh", func() { NewMemory().WriteF32(GlobalBase, vals) }},
		{"WriteF32 resident", func() { resident.WriteF32(GlobalBase, vals) }},
		{"ReadF32", func() { resident.ReadF32(GlobalBase, vals) }},
		{"Write resident", func() { resident.Write(GlobalBase, raw) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				c.f()
			}
		})
	}
}

// TestTypedTransfersEncoded runs TestTypedTransfers through the branch a
// big-endian host takes, which encodes into a scratch buffer instead of
// viewing the float slice's bytes.
func TestTypedTransfersEncoded(t *testing.T) {
	defer func(host bool) { littleEndianHost = host }(littleEndianHost)
	littleEndianHost = false
	TestTypedTransfers(t)
}

var sink uint64
