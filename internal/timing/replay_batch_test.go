package timing_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/timing"
	"repro/internal/torch"
)

// The replay cache's batch rung (replay.go, replayBatch) against its
// reference, the per-launch path: every run below goes once through the
// engine as shipped and once through an engine whose batch rung is
// switched off (timing.SetReplayBatch, a test seam), and the two must
// agree on everything but how many batches took the rung.

// maskBatchHits clears the one counter the two engines may differ in.
func maskBatchHits(s timing.Stats) timing.Stats {
	s.ReplayBatchHits = 0
	return s
}

// rungProbe is a prepare hook that sets the batch rung and keeps the
// engine, whose work counters the rows read after the run.
type rungProbe struct {
	on  bool
	eng *timing.Engine
}

func (p *rungProbe) prepare(e *timing.Engine) {
	p.eng = e
	timing.SetReplayBatch(e, p.on)
}

// TestReplayBatchEquivalence: the model-level rows run the warm-replay
// golden scenario (and decode, the periodic case) clean and perturbed;
// the queue-level rows drive Submit/SubmitCopy/Drain directly with
// batches built to miss the rung in every way it can be missed. Every
// row, at -j1 and -j4, must leave cycles, every per-ticket KernelStats,
// the full Stats struct (stall series included), outputs and final
// memory identical with the rung on and off.
func TestReplayBatchEquivalence(t *testing.T) {
	vocab := torch.SampleTransformerConfig().Vocab
	encoderRows := []struct {
		name     string
		opts     encoderReplayOpts
		wantHits uint64 // batches the rung retires; iterations 0-3 are detailed, capture and the two sightings
		composes uint64
	}{
		{"encoder clean", encoderReplayOpts{iters: 8}, 8 - 4, 1},
		// a perturbed iteration fails the composed validation and falls
		// back, and the chain re-earns its two sightings: three iterations
		// off the rung, a second compose
		{"encoder weight byte flipped", encoderReplayOpts{iters: 10,
			before: func(it int, enc *torch.TransformerEncoder, _ [][]int32) {
				if it == 5 {
					w := enc.Params()[3].W
					var b [1]byte
					enc.Dev.Ctx.Mem.Read(w.Ptr+5, b[:])
					b[0] ^= 0x10
					enc.Dev.Ctx.Mem.Write(w.Ptr+5, b[:])
				}
			}}, 10 - 4 - 3, 2},
		// the new id stays, and 16 launches read bytes the iteration before
		// left in their buffers: the per-launch path itself re-captures
		// twice before every memo applies again
		{"encoder input id changed", encoderReplayOpts{iters: 10,
			before: func(it int, _ *torch.TransformerEncoder, batch [][]int32) {
				if it == 5 {
					batch[1][3] = (batch[1][3] + 1) % int32(vocab)
				}
			}}, 10 - 4 - 4, 2},
	}
	for _, row := range encoderRows {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", row.name, workers), func(t *testing.T) {
				on, off := &rungProbe{on: true}, &rungProbe{on: false}
				run := func(p *rungProbe) encoderReplayRun {
					o := row.opts
					o.workers, o.prepare = workers, p.prepare
					return runEncoderReplay(t, o)
				}
				got, want := run(on), run(off)
				if got.Cycles != want.Cycles {
					t.Errorf("cycles: %d with the batch rung, %d without", got.Cycles, want.Cycles)
				}
				if !reflect.DeepEqual(got.Log, want.Log) {
					t.Error("per-launch KernelStats log diverged")
				}
				if !reflect.DeepEqual(maskBatchHits(got.Stats), maskBatchHits(want.Stats)) {
					t.Errorf("engine stats diverged:\n on: %+v\noff: %+v", got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Weights, want.Weights) {
					t.Error("outputs or final weights diverged")
				}
				if got.Stats.ReplayBatchHits != row.wantHits || want.Stats.ReplayBatchHits != 0 {
					t.Errorf("ReplayBatchHits = %d with the rung (want %d), %d without (want 0)",
						got.Stats.ReplayBatchHits, row.wantHits, want.Stats.ReplayBatchHits)
				}
				if c := timing.ReplayComposes(on.eng); c != row.composes {
					t.Errorf("composed %d chains, want %d", c, row.composes)
				}
				if c := timing.ReplayComposes(off.eng); c != 0 {
					t.Errorf("composed %d chains with the rung off", c)
				}
			})
		}
	}

	// decode: one generate batch per iteration, so the same ladder
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("decode/j%d", workers), func(t *testing.T) {
			const iters = 7
			on, off := &rungProbe{on: true}, &rungProbe{on: false}
			got := runDecode(t, workers, 2, true, true, iters, on.prepare)
			want := runDecode(t, workers, 2, true, true, iters, off.prepare)
			if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Log, want.Log) || !reflect.DeepEqual(got.Tokens, want.Tokens) {
				t.Errorf("cycles (%d vs %d), per-launch log or tokens diverged", got.Cycles, want.Cycles)
			}
			if !reflect.DeepEqual(maskBatchHits(got.Stats), maskBatchHits(want.Stats)) {
				t.Errorf("engine stats diverged:\n on: %+v\noff: %+v", got.Stats, want.Stats)
			}
			if got.Stats.ReplayBatchHits != iters-4 || want.Stats.ReplayBatchHits != 0 {
				t.Errorf("ReplayBatchHits = %d with the rung (want %d), %d without", got.Stats.ReplayBatchHits, iters-4, want.Stats.ReplayBatchHits)
			}
		})
	}

	for _, row := range queueRows() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", row.name, workers), func(t *testing.T) {
				got := runQueueRounds(t, workers, true, row.resampleEvery, row.rounds)
				want := runQueueRounds(t, workers, false, row.resampleEvery, row.rounds)
				if row.resampleEvery > 0 && got.Stats.ReplayResamples == 0 {
					t.Error("the cadence never re-sampled")
				}
				for r := range got.Rounds {
					if !reflect.DeepEqual(got.Rounds[r], want.Rounds[r]) {
						t.Errorf("round %d diverged:\n on: %+v\noff: %+v", r, got.Rounds[r], want.Rounds[r])
					}
					faults := false
					for _, op := range row.rounds[r] {
						faults = faults || op.kind == 'f'
					}
					if faults != (got.Rounds[r].Err != "") {
						t.Errorf("round %d: drain error %q, faulting kernel queued: %v", r, got.Rounds[r].Err, faults)
					}
				}
				if !reflect.DeepEqual(maskBatchHits(got.Stats), maskBatchHits(want.Stats)) {
					t.Errorf("engine stats diverged:\n on: %+v\noff: %+v", got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Memory, want.Memory) {
					t.Error("final device memory diverged")
				}
				if got.Stats.ReplayBatchHits != row.wantHits || got.Composes != row.composes {
					t.Errorf("with the rung: %d batch hits, %d composes; want %d, %d",
						got.Stats.ReplayBatchHits, got.Composes, row.wantHits, row.composes)
				}
				if want.Stats.ReplayBatchHits != 0 || want.Composes != 0 {
					t.Errorf("without the rung: %d batch hits, %d composes", want.Stats.ReplayBatchHits, want.Composes)
				}
			})
		}
	}
}

// queueOp is one ticket of a hand-built batch over the harness's buffers:
// a sqadd launch y += x*x over the first n floats, an n-float async copy
// into buffer y, or the kernel that faults mid-execution. Lanes are
// streams: each round gives every lane a stream id no earlier round used,
// as torch.Device.OnStreams does.
type queueOp struct {
	kind    byte // 'k' sqadd, 'c' copy, 'f' faulting kernel
	lane    int
	x, y, n int
}

type queueRound struct {
	Cycles  uint64
	Err     string
	Tickets []cudart.KernelStats
	Failed  []bool
}

type queueRun struct {
	Rounds   []queueRound
	Stats    timing.Stats
	Memory   [][]float32
	Composes uint64
}

const (
	queueLanes  = 4
	queueStages = 4   // buffers per lane: stage 0 is the lane's input
	queueN      = 256 // floats per buffer
)

func queueBuf(lane, stage int) int { return lane*queueStages + stage }

// chainBatch is the repeating batch: on each of `lanes` lanes a chain of
// three launches, each reading the buffer the one before it wrote — what
// one transformer sequence looks like to the engine — issued lane by
// lane.
func chainBatch(lanes int) []queueOp {
	var ops []queueOp
	for l := 0; l < queueLanes; l++ {
		for s := 0; s+1 < queueStages; s++ {
			ops = append(ops, queueOp{kind: 'k', lane: l % lanes, x: queueBuf(l, s), y: queueBuf(l, s+1), n: queueN})
		}
	}
	return ops
}

func repeatRound(n int, ops []queueOp) [][]queueOp {
	out := make([][]queueOp, n)
	for i := range out {
		out[i] = ops
	}
	return out
}

type queueRow struct {
	name          string
	rounds        [][]queueOp
	resampleEvery int
	wantHits      uint64
	composes      uint64
}

func queueRows() []queueRow {
	a := chainBatch(queueLanes)
	edit := func(f func(ops []queueOp) []queueOp) []queueOp { return f(append([]queueOp(nil), a...)) }
	// a different parameter on the last launch of lane 2's chain, and on
	// the one before it, whose output the last launch reads
	lastParam := edit(func(ops []queueOp) []queueOp { ops[8].n = 192; return ops })
	midParam := edit(func(ops []queueOp) []queueOp { ops[7].n = 192; return ops })
	shorter := a[:len(a)-1]
	withCopy := edit(func(ops []queueOp) []queueOp {
		return append(ops, queueOp{kind: 'c', lane: 0, y: queueBuf(0, 0), n: 64})
	})
	// same first launch as a, different last one
	b := edit(func(ops []queueOp) []queueOp { ops[len(ops)-1].n = 128; return ops })
	faulting := edit(func(ops []queueOp) []queueOp { return append(ops, queueOp{kind: 'f', lane: 1}) })

	cat := func(parts ...[][]queueOp) (out [][]queueOp) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	var alternating [][]queueOp
	for i := 0; i < 6; i++ {
		alternating = append(alternating, a, b)
	}
	return []queueRow{
		{"queue repeated", repeatRound(7, a), 0, 3, 1},
		// every entry is re-measured on its third lookup, which replaces
		// it: round 3 re-samples, 4 composes, 5 hits, 6 re-samples (the
		// rung sees an entry due and stands aside), 7 finds the chain's
		// entries stale and is a first sighting again, 8 composes.
		// ReplayResamples and ReplayDriftCycles are part of the Stats
		// compared.
		{"queue ReplayResampleEvery=3", repeatRound(9, a), 3, 1, 2},
		// a different signature in the middle: that batch runs per launch
		// and is no sighting, the chain stays and the next batch hits
		{"queue parameter changed mid-batch", cat(repeatRound(5, a), repeatRound(1, lastParam), repeatRound(2, a)), 0, 3, 1},
		// the launch downstream of the changed one re-captures its memo on
		// the different input, and again on the old one: the chain points
		// at a memo its entry no longer holds and starts over
		{"queue parameter changed upstream of a launch", cat(repeatRound(5, a), repeatRound(1, midParam), repeatRound(4, a)), 0, 2, 2},
		// a shorter all-applied batch under the same first launch takes
		// the chain's place, and the long one starts over
		{"queue one launch shorter", cat(repeatRound(5, a), repeatRound(1, shorter), repeatRound(3, a)), 0, 2, 2},
		// the same launches in the same order on two streams retire at
		// different cycles: a different chain
		{"queue 4 streams then 2", cat(repeatRound(5, a), repeatRound(4, chainBatch(2))), 0, 3, 2},
		{"queue async copy inside", cat(repeatRound(5, a), repeatRound(2, withCopy), repeatRound(1, a)), 0, 2, 1},
		{"queue alternating under one first launch", alternating, 0, 0, 0},
		// the abort leaves the engine usable and the chains alone
		{"queue aborted batch then good", cat(repeatRound(5, a), repeatRound(1, faulting), repeatRound(2, a)), 0, 3, 1},
	}
}

// runQueueRounds drains each round as one batch on a replay-enabled
// engine. Every buffer is rewritten to its initial contents before each
// round, so the accumulating kernel sees the same memory every time and
// its memos keep applying.
func runQueueRounds(t *testing.T, workers int, rung bool, resampleEvery int, rounds [][]queueOp) queueRun {
	t.Helper()
	cfg := timing.GTX1050()
	cfg.ReplayEnabled = true
	cfg.ReplayResampleEvery = resampleEvery
	h := newEdgeHarnessOn(t, cfg, workers)
	ctx, eng := h.ctx, h.eng
	timing.SetReplayBatch(eng, rung)
	bufs := make([]uint64, queueLanes*queueStages)
	initial := make([][]float32, len(bufs))
	for i := range bufs {
		initial[i] = make([]float32, queueN)
		for j := range initial[i] {
			initial[i][j] = float32((i*5+j)%11)*0.25 - 1
		}
		bufs[i] = h.alloc(initial[i])
	}

	var run queueRun
	for r, ops := range rounds {
		for i, b := range bufs {
			ctx.MemcpyF32HtoD(b, initial[i])
		}
		var tickets []*timing.Ticket
		for _, op := range ops {
			stream := 1 + r*queueLanes + op.lane
			switch op.kind {
			case 'k':
				tickets = append(tickets, h.submitSqadd(stream, bufs[op.x], bufs[op.y], op.n))
			case 'c':
				dst, data := bufs[op.y], initial[op.y][:op.n]
				tickets = append(tickets, eng.SubmitCopy(stream, 4*op.n, func() { ctx.MemcpyF32HtoD(dst, data) }))
			case 'f':
				tickets = append(tickets, h.submitOOB(stream))
			}
		}
		res := queueRound{}
		if err := eng.Drain(); err != nil {
			res.Err = err.Error()
		}
		res.Cycles = eng.Cycle()
		for _, tk := range tickets {
			st, err := tk.Stats()
			res.Tickets = append(res.Tickets, st)
			res.Failed = append(res.Failed, err != nil)
		}
		run.Rounds = append(run.Rounds, res)
	}
	run.Stats = *eng.Stats()
	run.Composes = timing.ReplayComposes(eng)
	for _, b := range bufs {
		run.Memory = append(run.Memory, ctx.MemcpyF32DtoH(b, queueN))
	}
	return run
}
