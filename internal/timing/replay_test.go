package timing

import (
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// This file locks hybrid replay mode (replay.go) to its two contracts:
// signatures must separate launches that could time differently and
// collide for byte-identical re-launches, and the hybrid engine must
// produce byte-identical final memory — exactly equal everything on a
// cold cache, exactly equal memory with tolerance-bounded per-kernel
// cycles on a warm one. The differential workload (eqPTX / eqPlan) is
// race-free by construction — streams write disjoint buffers — so
// replaying a kernel's functional effect atomically at retirement cannot
// reorder visible writes.

// runReplaySchedule executes a multi-round schedule on one engine:
// rounds[r] lists the eqOp indices submitted (in order) before the r-th
// Drain. Stream accumulator buffers and per-op input buffers are
// allocated once, up front, so a later round re-submitting an op builds a
// byte-identical parameter image (same device pointers) — which is
// exactly what makes its replay signature collide with the entry an
// earlier round recorded. Returned snapshots: cumulative cycles, this
// round's per-ticket stats, and the per-stream buffer contents after the
// round. Only the final round's Stats snapshot is safe to deep-compare
// (earlier snapshots share time-series backing arrays that later rounds
// keep growing).
func runReplaySchedule(t *testing.T, ops []eqOp, streams int, cfg Config, workers int, rounds [][]int) []eqResult {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(cfg, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ctx.RegisterModule(eqPTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("sqadd")
	if err != nil {
		t.Fatal(err)
	}

	bufs := make([]uint64, streams)
	for s := range bufs {
		init := make([]float32, eqBufN)
		for i := range init {
			init[i] = float32((i+s)%9) * 0.5
		}
		bufs[s], _ = ctx.Malloc(4 * eqBufN)
		ctx.MemcpyF32HtoD(bufs[s], init)
	}
	pxs := make([]uint64, len(ops))
	for i, op := range ops {
		if op.kernel {
			pxs[i], _ = ctx.Malloc(uint64(4 * op.n))
			ctx.MemcpyF32HtoD(pxs[i], op.data)
		}
	}

	var out []eqResult
	for _, round := range rounds {
		var tickets []*Ticket
		for _, i := range round {
			op := ops[i]
			if op.kernel {
				p := cudart.NewParams().Ptr(pxs[i]).Ptr(bufs[op.stream]).U32(uint32(op.n))
				g, err := ctx.M.NewGrid(kern, exec.Dim3{X: (op.n + 63) / 64}, exec.Dim3{X: 64}, p.Bytes(), 0)
				if err != nil {
					t.Fatal(err)
				}
				tk, err := eng.Submit(g, op.stream)
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			} else {
				dst, data := bufs[op.stream], op.data
				tickets = append(tickets, eng.SubmitCopy(op.stream, 4*op.n, func() { ctx.MemcpyF32HtoD(dst, data) }))
			}
		}
		if err := eng.Drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		res := eqResult{Cycles: eng.Cycle(), Stats: *eng.Stats()}
		for i, tk := range tickets {
			st, err := tk.Stats()
			if err != nil {
				t.Fatalf("ticket %d failed: %v", i, err)
			}
			res.Tickets = append(res.Tickets, st)
		}
		for s := range bufs {
			res.Outputs = append(res.Outputs, ctx.MemcpyF32DtoH(bufs[s], eqBufN))
		}
		out = append(out, res)
	}
	return out
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// normalizeReplayCounters zeroes the counters that legitimately differ
// between a replay-enabled engine and a detailed one (the hybrid engine
// counts misses even when every launch runs in detail).
func normalizeReplayCounters(s Stats) Stats {
	s.ReplayHits = 0
	s.ReplayMisses = 0
	s.ReplayResamples = 0
	s.ReplayedCycles = 0
	s.ReplayDriftCycles = 0
	return s
}

// TestReplaySignature is the table-driven signature contract: two
// byte-identical launches collide (including the same PTX re-parsed into
// a different module), and every launch ingredient — parameter bytes,
// grid/block dims, dynamic shared size, kernel code, engine config —
// separates signatures. The replay knobs themselves must be masked out
// of the config fingerprint.
func TestReplaySignature(t *testing.T) {
	cfg := GTX1050()
	newGrid := func(src string, gd, bd exec.Dim3, shared int, bumpParam bool) *exec.Grid {
		ctx := cudart.NewContext(exec.BugSet{})
		if _, err := ctx.RegisterModule(src); err != nil {
			t.Fatal(err)
		}
		_, kern, err := ctx.LookupKernel("sqadd")
		if err != nil {
			t.Fatal(err)
		}
		// identical allocation sequence in every context → identical
		// device pointers → param-image equality is decided by the
		// explicit bump alone
		px, _ := ctx.Malloc(4 * 64)
		py, _ := ctx.Malloc(4 * 64)
		n := uint32(64)
		if bumpParam {
			n = 63
		}
		p := cudart.NewParams().Ptr(px).Ptr(py).U32(n)
		g, err := ctx.M.NewGrid(kern, gd, bd, p.Bytes(), shared)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gd, bd := exec.Dim3{X: 4}, exec.Dim3{X: 64}
	// same entry name and semantics-preserving extra instruction: a
	// code-only difference
	patchedPTX := eqPTX[:len(eqPTX)-len("DONE:\n\tret;\n}\n")] + "DONE:\n\tmov.u32 %r2, %r2;\n\tret;\n}\n"

	rc := newReplayCache(&cfg)
	base := rc.signature(newGrid(eqPTX, gd, bd, 0, false))

	altCfg := cfg
	altCfg.L2Lat++
	maskedCfg := cfg
	maskedCfg.ReplayEnabled = true
	maskedCfg.ReplayResampleEvery = 7

	cases := []struct {
		name      string
		cache     *replayCache
		grid      *exec.Grid
		wantEqual bool
	}{
		{"identical launch", rc, newGrid(eqPTX, gd, bd, 0, false), true},
		{"same source reparsed", newReplayCache(&cfg), newGrid(eqPTX, gd, bd, 0, false), true},
		{"replay knobs masked from config hash", newReplayCache(&maskedCfg), newGrid(eqPTX, gd, bd, 0, false), true},
		{"different param bytes", rc, newGrid(eqPTX, gd, bd, 0, true), false},
		{"different grid dim", rc, newGrid(eqPTX, exec.Dim3{X: 5}, bd, 0, false), false},
		{"different block dim", rc, newGrid(eqPTX, gd, exec.Dim3{X: 32}, 0, false), false},
		{"different dynamic shared size", rc, newGrid(eqPTX, gd, bd, 16, false), false},
		{"different kernel code", rc, newGrid(patchedPTX, gd, bd, 0, false), false},
		{"different engine config", newReplayCache(&altCfg), newGrid(eqPTX, gd, bd, 0, false), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.cache.signature(tc.grid)
			if (got == base) != tc.wantEqual {
				t.Errorf("signature equality = %v, want %v", got == base, tc.wantEqual)
			}
		})
	}
}

// TestReplayColdCacheByteIdentical: a replay-enabled engine with an empty
// cache must be byte-identical to a detailed engine — cycles, per-ticket
// stats, engine counters and final device memory — under both -j1 and
// -jN. Intra-batch duplicates cannot hit (entries commit only at batch
// end), so the first Drain of any workload is always exact.
func TestReplayColdCacheByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops, streams := eqPlan(seed)
		rounds := [][]int{allIdx(len(ops))}
		nKernels := uint64(0)
		for _, op := range ops {
			if op.kernel {
				nKernels++
			}
		}
		for _, workers := range []int{1, 4} {
			det := runReplaySchedule(t, ops, streams, GTX1050(), workers, rounds)[0]
			cfg := GTX1050()
			cfg.ReplayEnabled = true
			hyb := runReplaySchedule(t, ops, streams, cfg, workers, rounds)[0]

			if hyb.Cycles != det.Cycles {
				t.Errorf("seed=%d j%d: cold-cache cycles diverged: hybrid %d vs detailed %d",
					seed, workers, hyb.Cycles, det.Cycles)
			}
			if !reflect.DeepEqual(hyb.Tickets, det.Tickets) {
				t.Errorf("seed=%d j%d: cold-cache per-ticket stats diverged", seed, workers)
			}
			if !reflect.DeepEqual(hyb.Outputs, det.Outputs) {
				t.Errorf("seed=%d j%d: cold-cache final device memory diverged", seed, workers)
			}
			if got, want := normalizeReplayCounters(hyb.Stats), normalizeReplayCounters(det.Stats); !reflect.DeepEqual(got, want) {
				t.Errorf("seed=%d j%d: cold-cache engine stats diverged:\nhybrid:   %+v\ndetailed: %+v",
					seed, workers, got, want)
			}
			if hyb.Stats.ReplayHits != 0 || hyb.Stats.ReplayMisses != nKernels {
				t.Errorf("seed=%d j%d: cold cache counted hits=%d misses=%d, want 0/%d",
					seed, workers, hyb.Stats.ReplayHits, hyb.Stats.ReplayMisses, nKernels)
			}
		}
	}
}

// TestReplayWarmCache re-runs the same batch three times. Rounds 2 and 3
// must (a) replay every kernel launch with exactly the cycle count round
// 1 measured, (b) leave final device memory byte-identical to a detailed
// engine running the same three rounds, and (c) keep per-kernel cycles
// within 4x of the detailed engine's same-round measurement — the
// tolerance exists because the detailed engine re-runs against warm
// L1/L2 state while replay reports the memoized cold-round timing
// (measured warmth effect on this workload is ~3x; ReplayResampleEvery
// is the production answer when that drift matters).
func TestReplayWarmCache(t *testing.T) {
	ops, streams := eqPlan(3)
	all := allIdx(len(ops))
	rounds := [][]int{all, all, all}
	det := runReplaySchedule(t, ops, streams, GTX1050(), 1, rounds)
	cfg := GTX1050()
	cfg.ReplayEnabled = true
	hyb := runReplaySchedule(t, ops, streams, cfg, 1, rounds)

	if !reflect.DeepEqual(hyb[2].Outputs, det[2].Outputs) {
		t.Error("warm-cache final device memory diverged from detailed")
	}
	nKernels := uint64(0)
	for _, op := range ops {
		if op.kernel {
			nKernels++
		}
	}
	for r := 1; r <= 2; r++ {
		for i := range all {
			if !ops[i].kernel {
				continue
			}
			h := hyb[r].Tickets[i]
			if !h.Replayed {
				t.Errorf("round %d ticket %d: identical re-launch was not replayed", r+1, i)
				continue
			}
			if want := hyb[0].Tickets[i].Cycles; h.Cycles != want {
				t.Errorf("round %d ticket %d: replayed %d cycles, memoized round-1 measured %d",
					r+1, i, h.Cycles, want)
			}
			d := det[r].Tickets[i].Cycles
			if h.Cycles > 4*d || d > 4*h.Cycles {
				t.Errorf("round %d ticket %d: replayed cycles %d outside 4x of detailed %d",
					r+1, i, h.Cycles, d)
			}
		}
	}
	final := hyb[2].Stats
	if final.ReplayHits != 2*nKernels || final.ReplayMisses != nKernels {
		t.Errorf("warm cache counted hits=%d misses=%d, want %d/%d",
			final.ReplayHits, final.ReplayMisses, 2*nKernels, nKernels)
	}
	if cov := final.ReplayCoverage(); cov <= 0.5 {
		t.Errorf("ReplayCoverage() = %v, want > 0.5 after two warm rounds", cov)
	}
}

// TestReplayMixedEquivalence drains a warm-up batch and then a batch
// mixing replay hits, cold misses and copies, and demands the -j1 and
// -j4 runs agree byte-for-byte on everything including the replay
// counters — replay decisions live on the coordinator, so worker count
// must not be able to influence them.
func TestReplayMixedEquivalence(t *testing.T) {
	ops, streams := eqPlan(5)
	var warm []int
	for i := range ops {
		if i%2 == 0 {
			warm = append(warm, i)
		}
	}
	rounds := [][]int{warm, allIdx(len(ops))}
	cfg := GTX1050()
	cfg.ReplayEnabled = true
	j1 := runReplaySchedule(t, ops, streams, cfg, 1, rounds)
	j4 := runReplaySchedule(t, ops, streams, cfg, 4, rounds)

	for r := range rounds {
		if j1[r].Cycles != j4[r].Cycles {
			t.Errorf("round %d: cycles diverged across worker counts: j1 %d vs j4 %d",
				r+1, j1[r].Cycles, j4[r].Cycles)
		}
		if !reflect.DeepEqual(j1[r].Tickets, j4[r].Tickets) {
			t.Errorf("round %d: per-ticket stats diverged across worker counts", r+1)
		}
		if !reflect.DeepEqual(j1[r].Outputs, j4[r].Outputs) {
			t.Errorf("round %d: final device memory diverged across worker counts", r+1)
		}
	}
	if !reflect.DeepEqual(j1[1].Stats, j4[1].Stats) {
		t.Errorf("engine stats diverged across worker counts:\nj1: %+v\nj4: %+v", j1[1].Stats, j4[1].Stats)
	}
	if j1[1].Stats.ReplayHits == 0 || j1[1].Stats.ReplayMisses == 0 {
		t.Errorf("mixed batch should see both hits and misses, got hits=%d misses=%d",
			j1[1].Stats.ReplayHits, j1[1].Stats.ReplayMisses)
	}
}

// TestReplayResample pins the re-sampling cadence: with
// ReplayResampleEvery=2 a single repeated launch alternates hit /
// detailed re-sample after its cold miss, every re-sample refreshing the
// entry (which restarts the cadence) and feeding the drift counter.
func TestReplayResample(t *testing.T) {
	ops, streams := eqPlan(1)
	k := -1
	for i, op := range ops {
		if op.kernel {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("plan has no kernel op")
	}
	cfg := GTX1050()
	cfg.ReplayEnabled = true
	cfg.ReplayResampleEvery = 2
	rounds := make([][]int, 7)
	for r := range rounds {
		rounds[r] = []int{k}
	}
	res := runReplaySchedule(t, ops, streams, cfg, 1, rounds)
	final := res[6].Stats
	if final.ReplayMisses != 1 || final.ReplayHits != 3 || final.ReplayResamples != 3 {
		t.Errorf("cadence counted misses=%d hits=%d resamples=%d, want 1/3/3",
			final.ReplayMisses, final.ReplayHits, final.ReplayResamples)
	}
	wantReplayed := []bool{false, true, false, true, false, true, false}
	for r, want := range wantReplayed {
		if got := res[r].Tickets[0].Replayed; got != want {
			t.Errorf("round %d: Replayed=%v, want %v", r+1, got, want)
		}
	}
}
