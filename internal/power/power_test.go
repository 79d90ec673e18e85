package power

import (
	"testing"

	"repro/internal/timing"
)

func TestBreakdownZeroCycles(t *testing.T) {
	m := DefaultModel()
	b := m.Average(&timing.Stats{}, 0, 1400)
	if b.Core != 0 || b.Idle != m.S.IdleW {
		t.Errorf("zero-cycle breakdown = %+v", b)
	}
}

func TestBreakdownMonotonicInActivity(t *testing.T) {
	m := DefaultModel()
	low := &timing.Stats{ALUOps: 1000, Instructions: 100, L1Accesses: 10}
	high := &timing.Stats{ALUOps: 1000000, Instructions: 100000, L1Accesses: 10000}
	bl := m.Average(low, 10000, 1400)
	bh := m.Average(high, 10000, 1400)
	if bh.Core <= bl.Core {
		t.Errorf("core power not monotone in activity: %v vs %v", bh.Core, bl.Core)
	}
	if bh.Idle != bl.Idle {
		t.Errorf("idle power must be constant: %v vs %v", bh.Idle, bl.Idle)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	m := DefaultModel()
	st := &timing.Stats{
		ALUOps: 5e6, SFUOps: 1e5, Instructions: 2e5,
		L1Accesses: 3e4, NoCFlits: 2e4,
		MemCounters: timing.MemCounters{L2Accesses: 1e4, DRAMAccesses: 3e3},
	}
	b := m.Average(st, 200000, 1400)
	names, watts := b.Components()
	if len(names) != 6 || len(watts) != 6 {
		t.Error("expected the paper's six components")
	}
	var total float64
	for _, w := range watts {
		if w < 0 {
			t.Fatalf("negative component: %+v", b)
		}
		total += w
	}
	if diff := total - b.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("components do not sum to total: %v vs %v", total, b.Total())
	}
}
