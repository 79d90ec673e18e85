package timing_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// Warm hybrid replay on the workload it exists for: the 4-sequence ×
// 12-token sample encoder batch, one stream per sequence, repeated on
// one session with free-the-delta between iterations (what `bench/`'s
// xf_hybrid runs 1012 times). Iteration 0 is detailed, iteration 1
// captures the functional memos, every later one retires from them.

// encoderReplayOpts shapes one run; the zero value of every field but
// iters is the plain -j1 run.
type encoderReplayOpts struct {
	workers int
	iters   int
	// prepare sees the engine before the first launch.
	prepare func(*timing.Engine)
	// before runs ahead of iteration it (the previous one's transients
	// are already freed) and may perturb weights or the batch.
	before func(it int, enc *torch.TransformerEncoder, batch [][]int32)
}

type encoderReplayRun struct {
	Cycles  uint64
	Log     []cudart.KernelStats
	Stats   timing.Stats
	Outputs [][][]float32 // [iteration][sequence]
	Weights [][]float32   // every parameter after the last iteration
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

func runEncoderReplay(t testing.TB, o encoderReplayOpts) encoderReplayRun {
	t.Helper()
	tcfg := timing.GTX1050()
	tcfg.ReplayEnabled = true
	s, err := session.New(tcfg, max(o.workers, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mcfg := torch.SampleTransformerConfig()
	enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Pin()
	if o.prepare != nil {
		o.prepare(s.Eng)
	}
	batch := transformerBatch(4, 12, mcfg.Vocab)
	var run encoderReplayRun
	it, err := s.Iterate(o.iters, func(it int) error {
		if o.before != nil {
			o.before(it, enc, batch)
		}
		outs, err := enc.ForwardBatch(batch, true)
		run.Outputs = append(run.Outputs, outs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Cycles, run.Log, run.Stats, run.DRAMServed = it.TotalCycles, s.Dev.Ctx.KernelStatsLog(), it.Stats, dramServed(s.Eng)
	for _, p := range enc.Params() {
		run.Weights = append(run.Weights, p.W.ToHost())
	}
	return run
}

// logDigest folds the pinned fields of every per-launch record, in launch
// order, in the layout %+v gave the record when the pins were recorded:
// the fields are named, so a field added to KernelStats later moves no
// pin. The record has since lost L2Misses, which always equalled
// DRAMAccesses, and renamed MemStallCycles IngressStallCycles; the text
// keeps both old names.
func logDigest(log []cudart.KernelStats) string {
	h := sha256.New()
	for _, k := range log {
		fmt.Fprintf(h, "{Name:%s LaunchID:%d GridDim:%+v BlockDim:%+v Cycles:%d WarpInstrs:%d L2Accesses:%d L2Hits:%d L2Misses:%d DRAMAccesses:%d DRAMRowHits:%d MemStallCycles:%d Replayed:%t}\n",
			k.Name, k.LaunchID, k.GridDim, k.BlockDim, k.Cycles, k.WarpInstrs, k.L2Accesses, k.L2Hits, k.DRAMAccesses,
			k.DRAMAccesses, k.DRAMRowHits, k.IngressStallCycles, k.Replayed)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// withReplayPins adds the hybrid-replay counters and the per-launch log
// digest to a golden entry.
func withReplayPins(e goldenEntry, log []cudart.KernelStats, st *timing.Stats) goldenEntry {
	e.ReplayHits = st.ReplayHits
	e.ReplayMisses = st.ReplayMisses
	e.ReplayMemoApplied = st.ReplayMemoApplied
	e.ReplayedCycles = st.ReplayedCycles
	e.LogDigest = logDigest(log)
	return e
}

// goldenTransformerReplayWarm pins 8 hybrid iterations of the sample
// batch: 6 of them warm.
func goldenTransformerReplayWarm(t *testing.T) goldenEntry {
	t.Helper()
	run := runEncoderReplay(t, encoderReplayOpts{iters: 8})
	checkDRAMLaw(t, run.DRAMServed, &run.Stats, run.Log)
	return withReplayPins(makeGoldenEntry(run.Cycles, run.Log, &run.Stats, true), run.Log, &run.Stats)
}

// goldenDecodeReplayWarm pins 5 hybrid iterations of the two-prompt
// KV-cached generate batch — the periodic case: a decode step's launches
// differ from the previous step's and repeat only an iteration later.
func goldenDecodeReplayWarm(t *testing.T) goldenEntry {
	t.Helper()
	snap := runDecode(t, 1, 2, true, true, 5)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return withReplayPins(makeGoldenEntry(snap.Cycles, snap.Log, &snap.Stats, true), snap.Log, &snap.Stats)
}
