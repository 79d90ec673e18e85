package exec

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/ptx"
)

// naiveSegments is the oracle's traffic rule written the obvious way: the
// set of 128-byte segments the active lanes start in.
func naiveSegments(s *StepInfo) int {
	if !s.IsMem {
		return 0
	}
	seen := map[uint64]bool{}
	for l := 0; l < WarpSize; l++ {
		if s.ActiveMask&(1<<l) != 0 {
			seen[s.Addrs[l]/128] = true
		}
	}
	return len(seen)
}

// TestSegments pins StepInfo.Segments against naiveSegments and a count
// worked out by hand, on every lane order its one-pass path must handle
// or hand over. Inactive lanes hold stale addresses, as they do after a
// real step.
func TestSegments(t *testing.T) {
	lanes := func(f func(l int) uint64) (a [WarpSize]uint64) {
		for l := range a {
			a[l] = f(l)
		}
		return a
	}
	stale := lanes(func(l int) uint64 { return 0xdead_0000 + uint64(l)*4096 })
	withStale := func(mask uint32, a [WarpSize]uint64) [WarpSize]uint64 {
		for l := range a {
			if mask&(1<<l) == 0 {
				a[l] = stale[l]
			}
		}
		return a
	}
	scattered := lanes(func(l int) uint64 { return 0x4000 + uint64(l*5%8)*128 + uint64(l)*4 })
	const full = ^uint32(0)
	rows := []struct {
		name  string
		space ptx.Space
		mask  uint32
		acc   int
		addrs [WarpSize]uint64
		want  int
	}{
		{"ascending unit stride", ptx.SpaceGlobal, full, 4, lanes(func(l int) uint64 { return 0x1000 + uint64(l)*4 }), 1},
		{"ascending across an edge", ptx.SpaceGlobal, full, 4, lanes(func(l int) uint64 { return 0x1040 + uint64(l)*4 }), 2},
		{"ascending stride 64", ptx.SpaceGlobal, full, 4, lanes(func(l int) uint64 { return 0x1000 + uint64(l)*64 }), 16},
		{"repeated address", ptx.SpaceGlobal, full, 4, lanes(func(int) uint64 { return 0x2004 }), 1},
		{"descending", ptx.SpaceGlobal, full, 4, lanes(func(l int) uint64 { return 0x8000 - uint64(l)*64 }), 17},
		{"ascending then back to the first segment", ptx.SpaceGlobal, full, 4, lanes(func(l int) uint64 { return uint64(l%3) * 128 }), 3},
		{"scattered", ptx.SpaceGlobal, full, 4, scattered, 8},
		{"partial mask, ascending", ptx.SpaceGlobal, 0x00ff_ff00, 4, lanes(func(l int) uint64 { return 0x1000 + uint64(l)*16 }), 2},
		{"partial mask, descending", ptx.SpaceGlobal, 0x8000_0101, 4, lanes(func(l int) uint64 { return 0x9000 - uint64(l)*128 }), 3},
		{"one lane", ptx.SpaceGlobal, 1 << 17, 4, lanes(func(int) uint64 { return 0x3000 }), 1},
		{"empty mask", ptx.SpaceNone, 0, 4, lanes(func(int) uint64 { return 0x3000 }), 0},
		// a 16-byte access at 0x10f8 ends in the next segment: only its
		// start counts, where the timing coalescer would count both
		{"vector access straddling an edge", ptx.SpaceGlobal, 1, 16, lanes(func(int) uint64 { return 0x10f8 }), 1},
		{"vector accesses, every eighth straddling", ptx.SpaceGlobal, full, 16, lanes(func(l int) uint64 { return 0x1078 + uint64(l)*16 }), 5},
		{"shared window, unit stride", ptx.SpaceShared, full, 4, lanes(func(l int) uint64 { return device.SharedWindowBase + uint64(l)*4 }), 1},
		{"shared window, bank-conflicting stride", ptx.SpaceShared, full, 4, lanes(func(l int) uint64 { return device.SharedWindowBase + uint64(l)*128 }), 32},
		{"param space", ptx.SpaceParam, full, 8, lanes(func(int) uint64 { return 0x10 }), 1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := StepInfo{IsMem: true, Space: r.space, ActiveMask: r.mask, AccSize: r.acc, Addrs: withStale(r.mask, r.addrs)}
			if got, ref := s.Segments(), naiveSegments(&s); got != r.want || ref != r.want {
				t.Errorf("Segments() = %d, naive reference %d, want %d", got, ref, r.want)
			}
		})
	}
	t.Run("not a memory instruction", func(t *testing.T) {
		s := StepInfo{ActiveMask: full, Addrs: stale}
		if got := s.Segments(); got != 0 {
			t.Errorf("Segments() = %d on an ALU step, want 0", got)
		}
	})
	t.Run("random masks and orders", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			s := StepInfo{IsMem: true, Space: ptx.SpaceGlobal, ActiveMask: rng.Uint32()}
			for l := range s.Addrs {
				s.Addrs[l] = uint64(rng.Intn(6))*128 + uint64(rng.Intn(128))
			}
			if i%2 == 0 { // half of them with the lanes' segments ascending
				for l := 1; l < WarpSize; l++ {
					s.Addrs[l] = max(s.Addrs[l], s.Addrs[l-1]&^127)
				}
			}
			if got, want := s.Segments(), naiveSegments(&s); got != want {
				t.Fatalf("mask %#x addrs %v: Segments() = %d, naive reference %d", s.ActiveMask, s.Addrs, got, want)
			}
		}
	})
}
