package timing_test

import (
	"fmt"
	"testing"

	"repro/internal/cudart"
	"repro/internal/timing"
)

// dramServed is the requests every partition's DRAM channel has served:
// the sum of its banks' reads and writes.
func dramServed(eng *timing.Engine) uint64 {
	var n uint64
	for _, ch := range eng.Partitions() {
		r, w, _, _ := ch.Totals()
		n += r + w
	}
	return n
}

// dramLaw is conservation law (v) of ROADMAP item 24: the requests the
// DRAM channels served equal the requests the counter ledger sent them,
// Stats.DRAMAccesses (reads) plus Stats.L2Writebacks (dirty evictions).
// A replayed launch's DRAMAccesses are in the ledger but were never
// issued to a channel, so they are subtracted first.
func dramLaw(served uint64, st *timing.Stats, log []cudart.KernelStats) error {
	sent := st.DRAMAccesses + st.L2Writebacks
	var replayed uint64
	for _, k := range log {
		if k.Replayed {
			replayed += k.DRAMAccesses
		}
	}
	if served != sent-replayed {
		return fmt.Errorf("DRAM conservation: the channels served %d requests, the ledger sent %d (%d DRAMAccesses + %d L2Writebacks - %d replayed)",
			served, sent-replayed, st.DRAMAccesses, st.L2Writebacks, replayed)
	}
	return nil
}

// checkDRAMLaw fails t when a run's DRAM traffic breaks dramLaw.
func checkDRAMLaw(t *testing.T, served uint64, st *timing.Stats, log []cudart.KernelStats) {
	t.Helper()
	if err := dramLaw(served, st, log); err != nil {
		t.Error(err)
	}
}

// TestDRAMLawSensitivity checks that dramLaw holds on a GEMM and reports
// a ledger total off by one in either term, or a launch wrongly marked
// replayed. Of the goldens, only transformer_replay_warm has writebacks
// (293 of them).
func TestDRAMLawSensitivity(t *testing.T) {
	snap := runWorkload(t, 1, gemmLoad)
	if err := dramLaw(snap.DRAMServed, &snap.Stats, snap.Log); err != nil {
		t.Fatal(err)
	}
	if snap.DRAMServed == 0 {
		t.Fatal("the GEMM served no DRAM request: the law is checked on nothing")
	}
	for name, mutate := range map[string]func(st *timing.Stats, log []cudart.KernelStats){
		"reads+1":      func(st *timing.Stats, _ []cudart.KernelStats) { st.DRAMAccesses++ },
		"writebacks+1": func(st *timing.Stats, _ []cudart.KernelStats) { st.L2Writebacks++ },
		"replayed":     func(_ *timing.Stats, log []cudart.KernelStats) { log[len(log)-1].Replayed = true },
	} {
		st, log := snap.Stats, append([]cudart.KernelStats(nil), snap.Log...)
		mutate(&st, log)
		if err := dramLaw(snap.DRAMServed, &st, log); err == nil {
			t.Errorf("%s: the law holds on a ledger that does not balance", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
