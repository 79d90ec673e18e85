package device

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteProperty(t *testing.T) {
	mem := NewMemory()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		// straddle page boundaries deliberately
		addr := GlobalBase + uint64(off) + PageSize - 8
		mem.Write(addr, data)
		got := make([]byte, len(data))
		mem.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMemoryEqualProperty: Equal agrees with Read-then-compare on spans
// that straddle pages, on unwritten memory (equal to zeros, without making
// it resident) and with one byte flipped anywhere in the span.
func TestMemoryEqualProperty(t *testing.T) {
	mem := NewMemory()
	f := func(off uint16, data []byte, flip uint16) bool {
		if len(data) == 0 {
			return true
		}
		addr := GlobalBase + uint64(off) + PageSize - 8
		mem.Write(addr, data)
		if !mem.Equal(addr, data) {
			return false
		}
		other := append([]byte(nil), data...)
		other[int(flip)%len(other)] ^= 1
		return !mem.Equal(addr, other)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	before := mem.TouchedBytes()
	far := uint64(GlobalBase) + 64*PageSize - 3
	if !mem.Equal(far, make([]byte, PageSize+6)) || mem.Equal(far, append(make([]byte, PageSize+5), 1)) {
		t.Error("unwritten memory must compare equal to zeros and to nothing else")
	}
	if mem.TouchedBytes() != before {
		t.Error("comparing unwritten memory made it resident")
	}
}

func TestMemoryZeroFill(t *testing.T) {
	mem := NewMemory()
	buf := make([]byte, 64)
	mem.Read(0xDEAD0000, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory must read as zero")
		}
	}
}

func TestLoadStoreSizes(t *testing.T) {
	mem := NewMemory()
	for _, size := range []int{1, 2, 4, 8} {
		addr := GlobalBase + uint64(size*100)
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		mem.Store(addr, v, size)
		if got := mem.Load(addr, size); got != v {
			t.Errorf("size %d: load = %#x, want %#x", size, got, v)
		}
	}
}

func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(writes []uint16) bool {
		mem := NewMemory()
		for i, w := range writes {
			mem.Store(GlobalBase+uint64(w)*16, uint64(i)*7+1, 8)
		}
		snap := mem.Snapshot()
		// mutate, then restore
		mem.Store(GlobalBase, 0xFFFF, 8)
		for _, w := range writes {
			mem.Store(GlobalBase+uint64(w)*16, 0, 8)
		}
		mem.Restore(snap)
		for i, w := range writes {
			want := uint64(0)
			// later duplicate writes win; recompute expectation
			for j := i; j < len(writes); j++ {
				if writes[j] == w {
					want = uint64(j)*7 + 1
				}
			}
			if got := mem.Load(GlobalBase+uint64(w)*16, 8); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorReuseAndCoalesce(t *testing.T) {
	a := NewAllocator()
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1%256 != 0 || p2%256 != 0 {
		t.Fatal("allocations must be 256-byte aligned")
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	// freeing the neighbour must coalesce: a 512-byte request then fits
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p4, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p1 {
		t.Errorf("coalesced region not reused: got %#x, want %#x", p4, p1)
	}
	if _, _, ok := a.SizeOf(p3 + 50); !ok {
		t.Error("SizeOf failed to find interior pointer")
	}
	if _, _, ok := a.SizeOf(0x42); ok {
		t.Error("SizeOf found a never-allocated address")
	}
}

func TestTextureRegistrySemantics(t *testing.T) {
	r := NewTextureRegistry()
	// §III-C: multiple texrefs registered under one name must accumulate.
	ref1, ref2 := &TexRef{}, &TexRef{}
	r.RegisterTexture("t", ref1)
	r.RegisterTexture("t", ref2)
	if len(r.Refs("t")) != 2 {
		t.Fatalf("expected 2 texrefs under one name, got %d", len(r.Refs("t")))
	}
	arr1 := NewCudaArray(8, 1, 1)
	arr2 := NewCudaArray(8, 1, 1)
	arr1.Data[0] = 1
	arr2.Data[0] = 2
	if err := r.BindTextureToArray(ref1, arr1, TextureInfo{}, TextureReferenceAttr{}); err != nil {
		t.Fatal(err)
	}
	got, err := r.LookupByName("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 1 {
		t.Fatal("name lookup did not resolve first binding")
	}
	// §III-C: rebinding implicitly unbinds the previous array.
	if err := r.BindTextureToArray(ref1, arr2, TextureInfo{}, TextureReferenceAttr{}); err != nil {
		t.Fatal(err)
	}
	got, _ = r.LookupByName("t")
	if got.Data[0] != 2 {
		t.Fatal("rebinding did not replace the array")
	}
	r.UnbindTexture(ref1)
	if _, err := r.LookupByName("t"); err == nil {
		t.Fatal("lookup after unbind should fail")
	}
	// binding an unregistered texref is an error
	if err := r.BindTextureToArray(&TexRef{Name: "ghost"}, arr1, TextureInfo{}, TextureReferenceAttr{}); err == nil {
		t.Fatal("binding unregistered texref should fail")
	}
}

func TestCudaArrayClamp(t *testing.T) {
	arr := NewCudaArray(4, 4, 1)
	for i := range arr.Data {
		arr.Data[i] = float32(i)
	}
	if v := arr.Fetch(-5, 0); v[0] != 0 {
		t.Errorf("x clamp low: %v", v[0])
	}
	if v := arr.Fetch(99, 3); v[0] != 15 {
		t.Errorf("clamp high: %v", v[0])
	}
	if v := arr.Fetch(2, 1); v[0] != 6 {
		t.Errorf("interior: %v", v[0])
	}
}
