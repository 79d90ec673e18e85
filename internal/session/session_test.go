package session

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/timing"
	"repro/internal/torch"
)

// body allocates and frees a mix of transient buffers the way a
// workload iteration does and returns the addresses it was handed, in
// order. midFree frees one buffer mid-iteration and then allocates a
// larger one — the training pattern: on a pristine bump region the
// larger buffer lands past the hole, on a recycled span it lands in it.
func body(t *testing.T, s *Session, midFree bool) []uint64 {
	t.Helper()
	var got []uint64
	alloc := func(n uint64) uint64 {
		a, err := s.Dev.Ctx.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
		return a
	}
	alloc(4096)
	b := alloc(1024)
	alloc(512)
	if err := s.Dev.Ctx.Free(b); err != nil {
		t.Fatal(err)
	}
	alloc(256) // fits the hole b left
	if midFree {
		last := alloc(2048)
		if err := s.Dev.Ctx.Free(last); err != nil {
			t.Fatal(err)
		}
		alloc(8192) // larger than the block just freed at the end
	}
	return got
}

// live returns which of addrs are live allocations, in order.
func live(s *Session, addrs ...uint64) []uint64 {
	var out []uint64
	for _, a := range addrs {
		if base, _, ok := s.Dev.Ctx.Alloc.SizeOf(a); ok && base == a {
			out = append(out, a)
		}
	}
	return out
}

func TestSessionIterations(t *testing.T) {
	for _, c := range []struct {
		name         string
		prime        bool
		midFree      bool
		wantIter0Eq1 bool
	}{
		{"inference body", false, false, true},
		{"inference body, primed", true, false, true},
		// the case the arena exists for: without it iteration 0 places
		// its post-free buffer differently from every later iteration
		{"training body, unprimed", false, true, false},
		{"training body, primed", true, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(timing.GTX1050(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var pinned []uint64 // stands in for model weights
			for i := 0; i < 3; i++ {
				w, err := s.Dev.Ctx.Malloc(1000)
				if err != nil {
					t.Fatal(err)
				}
				pinned = append(pinned, w)
			}
			if c.prime {
				if err := s.PrimeArena(); err != nil {
					t.Fatal(err)
				}
			}
			s.Pin()

			// everything the body was handed is dead at the boundary and
			// every pinned buffer alive: the live set is the pinned set
			var addrs [][]uint64
			for it := 0; it < 4; it++ {
				addrs = append(addrs, body(t, s, c.midFree))
				if err := s.EndIteration(); err != nil {
					t.Fatal(err)
				}
				if got := live(s, append(pinned, addrs[it]...)...); !reflect.DeepEqual(got, pinned) {
					t.Fatalf("after iteration %d live = %#x, want pinned %#x", it, got, pinned)
				}
			}
			if eq := reflect.DeepEqual(addrs[0], addrs[1]); eq != c.wantIter0Eq1 {
				t.Errorf("iteration 0 addresses == iteration 1: %v, want %v\n  0: %#x\n  1: %#x",
					eq, c.wantIter0Eq1, addrs[0], addrs[1])
			}
			for it := 2; it < len(addrs); it++ {
				if !reflect.DeepEqual(addrs[it], addrs[1]) {
					t.Errorf("steady-state iteration %d addresses diverged:\n  1: %#x\n  %d: %#x", it, addrs[1], it, addrs[it])
				}
			}

			// a second EndIteration with nothing transient is a no-op
			if err := s.EndIteration(); err != nil {
				t.Fatal(err)
			}
			if got := live(s, pinned...); !reflect.DeepEqual(got, pinned) {
				t.Errorf("second EndIteration freed pinned buffers: live %#x, want %#x", got, pinned)
			}
		})
	}
}

// TestSessionKeepDrop: Keep'd allocations (a serving request's KV
// caches) survive iteration boundaries until Drop hands them back.
func TestSessionKeepDrop(t *testing.T) {
	s, err := New(timing.GTX1050(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, _ := s.Dev.Ctx.Malloc(1000)
	s.Pin()

	kv, _ := s.Dev.Ctx.Malloc(2048)
	s.Keep([]uint64{kv})
	for it := 0; it < 2; it++ {
		transient := body(t, s, false)
		if err := s.EndIteration(); err != nil {
			t.Fatal(err)
		}
		if got, want := live(s, append(transient, w, kv)...), []uint64{w, kv}; !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: live = %#x, want weights + kept %#x", it, got, want)
		}
	}
	s.Drop([]uint64{kv})
	if err := s.EndIteration(); err != nil {
		t.Fatal(err)
	}
	if got, want := live(s, w, kv), []uint64{w}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Drop: live = %#x, want only the pinned %#x", got, want)
	}
}

// TestIterate: the driver runs the body iters times (at least once),
// frees between iterations and reports what the engine saw.
func TestIterate(t *testing.T) {
	s, err := New(timing.GTX1050(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Pin()
	var seen []int
	var addrs [][]uint64
	run, err := s.Iterate(3, func(it int) error {
		seen = append(seen, it)
		addrs = append(addrs, body(t, s, false))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) || run.Iters != 3 {
		t.Errorf("body ran for %v (Iters %d), want 0..2", seen, run.Iters)
	}
	if !reflect.DeepEqual(addrs[0], addrs[2]) {
		t.Errorf("iterations saw different addresses: %#x vs %#x", addrs[0], addrs[2])
	}
	if l := live(s, addrs[2]...); len(l) != 0 || run.Launches != 0 || run.TotalCycles != 0 {
		t.Errorf("launch-free body left live=%#x launches=%d cycles=%d", l, run.Launches, run.TotalCycles)
	}
	if run, _ := s.Iterate(0, func(int) error { return nil }); run.Iters != 1 {
		t.Errorf("Iterate(0) ran %d iterations, want 1", run.Iters)
	}
}

// TestIteratePerKernel: Iterate's launch count and per-kernel aggregates
// cover the context's whole log. Three replayed iterations of a
// stream-overlapped encoder batch fold, sorted by name, into what a
// by-name fold of KernelStatsLog gives, and their launch counts sum to
// Launches.
func TestIteratePerKernel(t *testing.T) {
	cfg := timing.GTX1050()
	cfg.ReplayEnabled = true
	s, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := torch.TransformerConfig{Layers: 1, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8}
	enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), model)
	if err != nil {
		t.Fatal(err)
	}
	s.Pin()
	batch := [][]int32{{1, 2, 3}, {4, 5, 6}}
	run, err := s.Iterate(3, func(int) error {
		_, err := enc.ForwardBatch(batch, true)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	log := s.Dev.Ctx.KernelStatsLog()
	want := map[string]KernelAgg{}
	for _, k := range log {
		a := want[k.Name]
		a.Name = k.Name
		a.Launches++
		a.Cycles += k.Cycles
		if k.Replayed {
			a.Replayed++
			a.ReplayedCycles += k.Cycles
		}
		want[k.Name] = a
	}
	if run.Launches != len(log) || len(run.PerKernel) != len(want) {
		t.Fatalf("Launches %d over %d kernels, KernelStatsLog holds %d launches of %d kernels",
			run.Launches, len(run.PerKernel), len(log), len(want))
	}
	sum, replayed := 0, 0
	for i, a := range run.PerKernel {
		if a != want[a.Name] {
			t.Errorf("kernel %s: %+v, want %+v", a.Name, a, want[a.Name])
		}
		if i > 0 && run.PerKernel[i-1].Name >= a.Name {
			t.Errorf("PerKernel not sorted by name: %s before %s", run.PerKernel[i-1].Name, a.Name)
		}
		sum += a.Launches
		replayed += a.Replayed
	}
	if sum != run.Launches {
		t.Errorf("PerKernel launch counts sum to %d, Launches is %d", sum, run.Launches)
	}
	if replayed == 0 {
		t.Errorf("no launch of %d replayed: the fold never saw a replayed record", run.Launches)
	}
}
