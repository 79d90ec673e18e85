// Package power is the GPUWattch analog: an event-energy model that
// splits average power into the paper's six components — core, L1 cache,
// L2 cache, NOC, DRAM and idle (Fig. 8). Constants are event energies in
// picojoules plus per-component static power in watts, calibrated so a
// compute-heavy CNN lands near the paper's reported MNIST split (≈65%
// core, ≈25% idle).
package power

import "repro/internal/timing"

// Energies holds per-event dynamic energies in picojoules.
type Energies struct {
	ALUOp      float64 // per lane-instruction (incl. register file)
	SFUOp      float64
	Issue      float64 // per warp instruction (fetch/decode/issue)
	SharedAcc  float64
	L1Acc      float64
	TexAcc     float64
	L2Acc      float64
	NoCFlit    float64
	DRAMAccess float64 // per 128B transfer incl. I/O
}

// Statics holds per-component static (leakage + constant) power in watts.
type Statics struct {
	CoreW float64
	L1W   float64
	L2W   float64
	NoCW  float64
	DRAMW float64
	IdleW float64 // chip-level constant draw attributed to "Idle"
}

// Model is a configured power model.
type Model struct {
	E Energies
	S Statics
}

// DefaultModel returns the calibrated model.
func DefaultModel() *Model {
	return &Model{
		E: Energies{
			ALUOp: 18, SFUOp: 80, Issue: 120,
			SharedAcc: 60, L1Acc: 80, TexAcc: 90,
			L2Acc: 240, NoCFlit: 100, DRAMAccess: 2600,
		},
		S: Statics{
			CoreW: 42.0, L1W: 0.8, L2W: 1.2, NoCW: 0.8, DRAMW: 2.2, IdleW: 16.0,
		},
	}
}

// Breakdown is average power per component in watts.
type Breakdown struct {
	Core float64
	L1   float64
	L2   float64
	NOC  float64
	DRAM float64
	Idle float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Core + b.L1 + b.L2 + b.NOC + b.DRAM + b.Idle
}

// Components returns name/watt pairs in the paper's Fig. 8 order.
func (b Breakdown) Components() ([]string, []float64) {
	return []string{"Core", "L1 Cache", "L2 Cache", "NOC", "DRAM", "Idle"},
		[]float64{b.Core, b.L1, b.L2, b.NOC, b.DRAM, b.Idle}
}

// Average computes the average power over a run of `cycles` cycles at
// clockMHz using the timing statistics.
func (m *Model) Average(st *timing.Stats, cycles uint64, clockMHz float64) Breakdown {
	if cycles == 0 {
		return Breakdown{Idle: m.S.IdleW}
	}
	seconds := float64(cycles) / (clockMHz * 1e6)
	pj := 1e-12
	w := func(events uint64, e float64) float64 {
		return float64(events) * e * pj / seconds
	}
	return Breakdown{
		Core: w(st.ALUOps, m.E.ALUOp) + w(st.SFUOps, m.E.SFUOp) +
			w(st.Instructions, m.E.Issue) + w(st.SharedAccesses, m.E.SharedAcc) +
			m.S.CoreW,
		L1:   w(st.L1Accesses, m.E.L1Acc) + w(st.TextureAccesses, m.E.TexAcc) + m.S.L1W,
		L2:   w(st.L2Accesses, m.E.L2Acc) + m.S.L2W,
		NOC:  w(st.NoCFlits, m.E.NoCFlit) + m.S.NoCW,
		DRAM: w(st.DRAMAccesses, m.E.DRAMAccess) + m.S.DRAMW,
		Idle: m.S.IdleW,
	}
}
