package timing

import "testing"

// AdvanceTo is the multi-GPU layer's clock bridge: an idle engine jumps
// to a collective's completion cycle with the span charged as idle.
func TestAdvanceTo(t *testing.T) {
	e, err := New(GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 1000 {
		t.Fatalf("cycle = %d, want 1000", e.Cycle())
	}
	if ff := e.Stats().FastForwardedCycles; ff != 1000 {
		t.Fatalf("FastForwardedCycles = %d, want 1000", ff)
	}
	wantIdle := uint64(1000) * uint64(e.Config().NumSMs*e.Config().SchedulersPerSM)
	if got := e.Stats().IdleSlotCycles; got != wantIdle {
		t.Fatalf("IdleSlotCycles = %d, want %d (span x issue slots)", got, wantIdle)
	}
	// Earlier or equal targets are a no-op — the clock never rewinds.
	if err := e.AdvanceTo(500); err != nil {
		t.Fatal(err)
	}
	if e.Cycle() != 1000 {
		t.Fatalf("cycle rewound to %d", e.Cycle())
	}
	// An engine with queued work refuses to jump.
	e.queue = append(e.queue, &Ticket{})
	if err := e.AdvanceTo(2000); err == nil {
		t.Fatal("AdvanceTo succeeded with a queued operation")
	}
	e.queue = e.queue[:0]
}

func TestPoolExportedRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		out := make([]int, 16)
		p.Run(len(out), func(i int) { out[i] = i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
		if p.p.workers != workers {
			t.Fatalf("pool has %d workers, want %d", p.p.workers, workers)
		}
		p.Close()
	}
}
