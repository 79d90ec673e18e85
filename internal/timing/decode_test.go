package timing_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// KV-cached autoregressive decode under the detailed timing model: the
// same determinism contracts the encoder tests pin (stream-vs-serial and
// -j1-vs-jN byte-identity), extended with the replay cache — repeated
// generate batches must hit the cache and still reproduce tokens, logs
// and every replay counter regardless of worker count.

type decodeSnapshot struct {
	Cycles uint64
	Log    []cudart.KernelStats
	Tokens [][]int32
	Stats  timing.Stats
	// DRAMServed is the requests the DRAM channels served (dramServed).
	DRAMServed uint64
}

// runDecode greedy-decodes a `seqs`-prompt batch (3 prompt tokens, 4
// generated) `iters` times on one session — the production iteration
// driver — so with replay on, later iterations retire from the replay
// cache. prepare hooks see the engine before the first launch.
func runDecode(t testing.TB, workers, seqs int, concurrent, replay bool, iters int, prepare ...func(*timing.Engine)) decodeSnapshot {
	t.Helper()
	tcfg := timing.GTX1050()
	tcfg.ReplayEnabled = replay
	s, err := session.New(tcfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dec, err := torch.NewTransformerDecoder(s.Dev, rand.New(rand.NewSource(99)), testTransformerConfig)
	if err != nil {
		t.Fatal(err)
	}
	s.Pin()
	for _, p := range prepare {
		p(s.Eng)
	}
	prompts := transformerBatch(seqs, 3, testTransformerConfig.Vocab)
	var tokens [][]int32
	run, err := s.Iterate(iters, func(it int) error {
		outs, err := dec.GenerateBatch(prompts, 4, concurrent)
		if err != nil {
			return err
		}
		if it == 0 {
			tokens = outs
		} else if !reflect.DeepEqual(tokens, outs) {
			return fmt.Errorf("iteration %d tokens diverged: %v vs %v", it+1, outs, tokens)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decodeSnapshot{Cycles: run.TotalCycles, Log: s.Dev.Ctx.KernelStatsLog(), Tokens: tokens, Stats: run.Stats, DRAMServed: dramServed(s.Eng)}
}

// TestDecodeSimMatchesCPU runs the stream-overlapped decode through the
// detailed timing model and checks every sequence token-for-token
// against the GenerateCPU oracle.
func TestDecodeSimMatchesCPU(t *testing.T) {
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	dec, err := torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(99)), testTransformerConfig)
	if err != nil {
		t.Fatal(err)
	}
	prompts := transformerBatch(2, 3, testTransformerConfig.Vocab)
	const n = 4
	outs, err := dec.GenerateBatch(prompts, n, true)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cycle() == 0 {
		t.Fatal("decode did not go through the timing engine")
	}
	for i, p := range prompts {
		want, err := dec.GenerateCPU(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs[i]) != len(want) {
			t.Fatalf("seq %d: %d tokens, oracle %d", i, len(outs[i]), len(want))
		}
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("seq %d token %d: device %d, oracle %d (full: %v vs %v)",
					i, j, outs[i][j], want[j], outs[i], want)
			}
		}
	}
}

// TestDecodeStreamVsSerialDifferential: per-sequence decode chains on
// concurrent streams must preserve the serialized run's tokens and
// per-kernel instruction counts exactly.
func TestDecodeStreamVsSerialDifferential(t *testing.T) {
	conc := runDecode(t, 1, 3, true, false, 1)
	serial := runDecode(t, 1, 3, false, false, 1)

	if len(conc.Log) != len(serial.Log) {
		t.Fatalf("launch counts diverged: %d vs %d", len(conc.Log), len(serial.Log))
	}
	for i := range conc.Log {
		if conc.Log[i].Name != serial.Log[i].Name {
			t.Errorf("launch %d kernel diverged: %s vs %s", i, conc.Log[i].Name, serial.Log[i].Name)
		}
		if conc.Log[i].WarpInstrs != serial.Log[i].WarpInstrs {
			t.Errorf("kernel %d (%s) instruction count diverged: concurrent %d vs serial %d",
				i, conc.Log[i].Name, conc.Log[i].WarpInstrs, serial.Log[i].WarpInstrs)
		}
		if conc.Log[i].Cycles == 0 {
			t.Errorf("kernel %d (%s) has no cycles — did not go through the detailed model",
				i, conc.Log[i].Name)
		}
	}
	if !reflect.DeepEqual(conc.Tokens, serial.Tokens) {
		t.Error("generated tokens diverged between concurrent and serialized runs")
	}
}

// TestDecodeWorkerDeterminism extends the -j1-vs-jN byte-identity
// contract to replay-enabled decode: two identical generate batches on
// one engine (the second riding the replay cache) must produce the same
// cycles, per-kernel log, tokens and full Stats — replay counters
// included — for any worker count.
func TestDecodeWorkerDeterminism(t *testing.T) {
	base := runDecode(t, 1, 2, true, true, 2)
	if base.Stats.ReplayHits == 0 {
		t.Fatal("second decode iteration produced no replay hits")
	}
	for _, workers := range []int{2, 4} {
		got := runDecode(t, workers, 2, true, true, 2)
		if base.Cycles != got.Cycles {
			t.Errorf("-j1 vs -j%d total cycles diverged: %d vs %d", workers, base.Cycles, got.Cycles)
		}
		if !reflect.DeepEqual(base.Log, got.Log) {
			t.Errorf("-j1 vs -j%d per-kernel stats diverged", workers)
		}
		if !reflect.DeepEqual(base.Tokens, got.Tokens) {
			t.Errorf("-j1 vs -j%d tokens diverged", workers)
		}
		if !reflect.DeepEqual(base.Stats, got.Stats) {
			t.Errorf("-j1 vs -j%d engine stats diverged:\n  -j1: %+v\n  -j%d: %+v",
				workers, base.Stats, workers, got.Stats)
		}
	}
}
