package device

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// f32Bytes is the byte path's encoding of vals: little-endian float32.
func f32Bytes(vals []float32) []byte {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// sameImage fails unless the two memories hold the same pages with the
// same bytes.
func sameImage(t *testing.T, typed, bytePath *Memory) {
	t.Helper()
	if a, b := typed.TouchedBytes(), bytePath.TouchedBytes(); a != b {
		t.Fatalf("typed path made %d bytes resident, byte path %d", a, b)
	}
	if !reflect.DeepEqual(typed.Snapshot(), bytePath.Snapshot()) {
		t.Fatal("typed and byte paths left different memory images")
	}
}

// sameReadBack reads n values at addr through ReadF32 and through Read,
// and fails unless they agree bit for bit and neither made a page
// resident.
func sameReadBack(t *testing.T, typed, bytePath *Memory, addr uint64, n int) {
	t.Helper()
	before := typed.TouchedBytes()
	got := make([]float32, n)
	typed.ReadF32(addr, got)
	raw := make([]byte, 4*n)
	bytePath.Read(addr, raw)
	for i, v := range got {
		if w := binary.LittleEndian.Uint32(raw[4*i:]); math.Float32bits(v) != w {
			t.Fatalf("ReadF32(%#x)[%d] = %#08x, Read decodes %#08x", addr, i, math.Float32bits(v), w)
		}
	}
	if after := typed.TouchedBytes(); after != before {
		t.Fatalf("ReadF32 made memory resident: %d -> %d bytes", before, after)
	}
}

// TestTypedTransfers checks WriteF32, ReadF32 and Fill against Write and
// Read of the same bytes: same memory image, same resident pages, same
// values bit for bit, across page edges and at every misalignment.
func TestTypedTransfers(t *testing.T) {
	edge := uint64(GlobalBase + 3*PageSize)
	ramp := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i) - 0.25
		}
		return v
	}
	special := []float32{
		math.Float32frombits(0x7fc00001), // quiet NaN with a payload
		math.Float32frombits(0x7f800001), // signalling NaN
		math.Float32frombits(0xffbfffff), // negative NaN, full payload
		float32(math.Copysign(0, -1)),
		math.Float32frombits(1),          // smallest denormal
		math.Float32frombits(0x807fffff), // largest negative denormal
		float32(math.Inf(-1)),
	}
	for _, c := range []struct {
		name string
		addr uint64
		vals []float32
	}{
		{"aligned within a page", GlobalBase + 64, ramp(100)},
		{"aligned across two page edges", edge - 8, ramp(2*PageSize/4 + 7)},
		{"addr%4=1 across an edge", edge - 6 + 1, ramp(40)},
		{"addr%4=2 across an edge", edge - 6 + 2, ramp(40)},
		{"addr%4=3 across an edge", edge - 6 + 3, ramp(40)},
		{"addr%4=1 straddling value only", edge - 3, ramp(1)},
		{"zero length", edge - 2, nil},
		{"NaN payloads, -0 and denormals", edge - 12, special},
		{"NaN payloads, misaligned", edge - 13, special},
		{"top of the address space", ^uint64(0) - 4*PageSize + 1, ramp(PageSize / 4)},
	} {
		t.Run(c.name, func(t *testing.T) {
			typed, bytePath := NewMemory(), NewMemory()
			// one page already resident on both sides, holding non-zero bytes
			pre := bytes.Repeat([]byte{0xa5}, PageSize)
			typed.Write(c.addr&^(PageSize-1), pre)
			bytePath.Write(c.addr&^(PageSize-1), pre)
			typed.WriteF32(c.addr, c.vals)
			bytePath.Write(c.addr, f32Bytes(c.vals))
			sameImage(t, typed, bytePath)
			// the written span plus untouched memory on both sides
			from := c.addr - 2*PageSize
			sameReadBack(t, typed, bytePath, from, (2*PageSize+4*len(c.vals))/4+PageSize/2)
		})
	}

	t.Run("ReadF32 of untouched pages stays non-resident", func(t *testing.T) {
		typed, bytePath := NewMemory(), NewMemory()
		for _, addr := range []uint64{0, GlobalBase + 1, edge - 7, 0xDEAD_0000_0002} {
			sameReadBack(t, typed, bytePath, addr, 3*PageSize/4)
		}
		if typed.TouchedBytes() != 0 {
			t.Fatalf("%d bytes resident after reads only", typed.TouchedBytes())
		}
	})

	for _, c := range []struct {
		name string
		addr uint64
		b    byte
		n    int
	}{
		{"Fill 0 makes the same pages resident as Write of zeros", edge - 5, 0, 2*PageSize + 9},
		{"Fill 0 of one byte", edge - 1, 0, 1},
		{"Fill non-zero across edges", edge - PageSize - 3, 0x7f, 3*PageSize + 1},
		{"Fill 0xff within a page", GlobalBase + 17, 0xff, 100},
		{"Fill of zero length", edge, 0x11, 0},
		{"Fill of negative length", edge, 0x11, -8},
	} {
		t.Run(c.name, func(t *testing.T) {
			typed, bytePath := NewMemory(), NewMemory()
			// the page after the fill is resident with non-zero bytes on both sides
			next := (c.addr + uint64(max(c.n, 0)) + PageSize) &^ (PageSize - 1)
			for _, m := range []*Memory{typed, bytePath} {
				m.Write(next-PageSize/2, bytes.Repeat([]byte{0x3c}, PageSize))
			}
			typed.Fill(c.addr, c.b, c.n)
			bytePath.Write(c.addr, bytes.Repeat([]byte{c.b}, max(c.n, 0)))
			sameImage(t, typed, bytePath)
		})
	}
}

// FuzzTypedTransfers runs generated address offsets, lengths and float
// bit patterns through the typed accessors on one memory and through
// Write/Read on another: the final images, the values read back and the
// resident-page counts must be identical.
func FuzzTypedTransfers(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), byte(0), []byte{1, 2, 3, 4})
	f.Add(uint16(PageSize-6), uint16(PageSize-2), uint16(2*PageSize-1), byte(0), []byte{0x01, 0x00, 0xc0, 0x7f, 0, 0, 0, 0x80})
	f.Add(uint16(2*PageSize+3), uint16(PageSize+1), uint16(5), byte(0xee), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, writeOff, readOff, fillLen uint16, fill byte, raw []byte) {
		const window = 4 * PageSize // every offset lands in the first few pages
		base := uint64(GlobalBase)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		typed, bytePath := NewMemory(), NewMemory()
		wAddr := base + uint64(writeOff)%window
		typed.WriteF32(wAddr, vals)
		bytePath.Write(wAddr, f32Bytes(vals))
		sameImage(t, typed, bytePath)

		rAddr := base + uint64(readOff)%(2*window)
		sameReadBack(t, typed, bytePath, rAddr, len(vals)+int(fillLen)%PageSize)

		fAddr := base + uint64(readOff^writeOff)%window
		n := int(fillLen) % (2 * PageSize)
		typed.Fill(fAddr, fill, n)
		bytePath.Write(fAddr, bytes.Repeat([]byte{fill}, n))
		sameImage(t, typed, bytePath)
		sameReadBack(t, typed, bytePath, wAddr, len(vals))
	})
}
