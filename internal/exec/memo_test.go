package exec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
)

// TestRecorderMatchesByteModel drives the word-granular capture recorder
// with random reads and writes of 1–40 bytes — aligned, unaligned, across
// mask words and across pages — and checks the frozen memo against a
// byte-at-a-time model: a byte is in the read set with its first observed
// value iff it was read before being written, and in the write set with
// its last written value iff it was written.
func TestRecorderMatchesByteModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := &memRecorder{pages: make(map[uint64]*memoPage)}
		reads, writes := map[uint64]byte{}, map[uint64]byte{}
		base := uint64(device.GlobalBase) + uint64(rng.Intn(3))*memoPageSize
		for op := 0; op < 400; op++ {
			addr := base + uint64(rng.Intn(3*memoPageSize))
			if rng.Intn(4) == 0 {
				addr = base + memoPageSize - uint64(rng.Intn(20)) // straddle the page boundary
			}
			buf := make([]byte, 1+rng.Intn(40))
			rng.Read(buf)
			if rng.Intn(2) == 0 {
				r.recordRead(addr, buf)
				for i, b := range buf {
					a := addr + uint64(i)
					if _, w := writes[a]; w {
						continue
					}
					if _, seen := reads[a]; !seen {
						reads[a] = b
					}
				}
			} else {
				r.recordWrite(addr, buf)
				for i, b := range buf {
					writes[addr+uint64(i)] = b
				}
			}
		}
		mo := r.memo()
		for name, pair := range map[string]struct {
			spans []memSpan
			want  map[uint64]byte
		}{"read": {mo.reads, reads}, "write": {mo.writes, writes}} {
			got := map[uint64]byte{}
			end := uint64(0)
			for _, s := range pair.spans {
				if s.addr < end || len(s.data) == 0 {
					t.Fatalf("trial %d: %s spans overlap, touch or are empty at %#x", trial, name, s.addr)
				}
				if s.addr == end && end != 0 {
					t.Fatalf("trial %d: adjacent %s spans at %#x were not merged", trial, name, s.addr)
				}
				for i, b := range s.data {
					got[s.addr+uint64(i)] = b
				}
				end = s.addr + uint64(len(s.data))
			}
			if len(got) != len(pair.want) {
				t.Fatalf("trial %d: %s set holds %d bytes, model %d", trial, name, len(got), len(pair.want))
			}
			for a, b := range pair.want {
				if v, ok := got[a]; !ok || v != b {
					t.Fatalf("trial %d: %s set byte %#x = %#x (present %v), model %#x", trial, name, a, v, ok, b)
				}
			}
		}
	}
}

// TestComposeMemos checks the composition of a launch sequence's memos
// against the byte model of that sequence, on seeded random sequences
// over a small memory that straddles a page boundary. Each member is
// recorded while "executing" on the memory its predecessors left, so the
// members are mutually consistent, as the engine's are.
func TestComposeMemos(t *testing.T) {
	const span = 600
	base := uint64(device.GlobalBase) + memoPageSize - span/2
	newImage := func(img []byte) *Machine {
		mem := device.NewMemory()
		mem.Write(base, img)
		return NewMachine(BugSet{}, mem, nil)
	}
	image := func(m *Machine) []byte {
		buf := make([]byte, span)
		m.Mem.Read(base, buf)
		return buf
	}
	// inSequence validates and applies the members one after another, the
	// way per-launch replay does, and reports whether all of them matched.
	inSequence := func(m *Machine, members []*GridMemo) bool {
		for _, mo := range members {
			if !mo.Matches(m) {
				return false
			}
			mo.Apply(m)
		}
		return true
	}

	rng := rand.New(rand.NewSource(11))
	interiorSeen := 0
	for trial := 0; trial < 60; trial++ {
		initial := make([]byte, span)
		rng.Read(initial)
		cur := append([]byte(nil), initial...)
		// the sequence's byte model: inputs (read before any member wrote
		// them), everything written, and the bytes an earlier write fed to
		// a later read without ever being an input
		inputs, written, interior := map[int]bool{}, map[int]bool{}, map[int]bool{}
		var members []*GridMemo
		for k := 2 + rng.Intn(5); k > 0; k-- {
			r := &memRecorder{pages: make(map[uint64]*memoPage)}
			for op := 0; op < 12; op++ {
				off := rng.Intn(span - 40)
				n := 1 + rng.Intn(40)
				if rng.Intn(2) == 0 {
					r.recordRead(base+uint64(off), cur[off:off+n])
					for i := off; i < off+n; i++ {
						if written[i] {
							if !inputs[i] {
								interior[i] = true
							}
						} else {
							inputs[i] = true
						}
					}
				} else {
					rng.Read(cur[off : off+n])
					r.recordWrite(base+uint64(off), cur[off:off+n])
					for i := off; i < off+n; i++ {
						written[i] = true
					}
				}
			}
			members = append(members, r.memo())
		}
		interiorSeen += len(interior)
		composed := ComposeMemos(members)
		if composed == nil {
			t.Fatalf("trial %d: composition of %d memos is nil", trial, len(members))
		}
		if got := composed.ReadBytes(); got != len(inputs) {
			t.Fatalf("trial %d: composed read-set holds %d bytes, the sequence has %d inputs", trial, got, len(inputs))
		}

		// applying the composition equals applying the members in order
		whole, parts := newImage(initial), newImage(initial)
		if !composed.Matches(whole) {
			t.Fatalf("trial %d: composition does not match the memory it was recorded on", trial)
		}
		composed.Apply(whole)
		if !inSequence(parts, members) {
			t.Fatalf("trial %d: a member does not match in sequence on the recording memory", trial)
		}
		if got := image(whole); !bytes.Equal(got, image(parts)) || !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: Apply of the composition differs from the members applied in order", trial)
		}

		// one flipped byte anywhere: the composition matches exactly when
		// the byte is not an input — and then every member matches too,
		// checked (it rewrites the memory) for every interior byte and a
		// sample of the others
		probe := newImage(initial)
		for off := 0; off < span; off++ {
			flipped := []byte{initial[off] ^ 0x5a}
			probe.Mem.Write(base+uint64(off), flipped)
			if got, want := composed.Matches(probe), !inputs[off]; got != want {
				t.Fatalf("trial %d: byte %d flipped (input %v, interior %v): composition matches = %v",
					trial, off, inputs[off], interior[off], got)
			}
			probe.Mem.Write(base+uint64(off), initial[off:off+1])
			if !inputs[off] && (interior[off] || off%16 == 0) {
				img := append([]byte(nil), initial...)
				img[off] = flipped[0]
				if !inSequence(newImage(img), members) {
					t.Fatalf("trial %d: byte %d flipped: the composition matched but a member did not", trial, off)
				}
			}
		}

		if ComposeMemos(append(members[:1:1], nil)) != nil {
			t.Fatalf("trial %d: a nil member did not make the composition nil", trial)
		}
	}
	if interiorSeen == 0 {
		t.Fatal("no trial fed an earlier member's write to a later member's read")
	}
}
