package exec

import (
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
