package timing_test

import (
	"flag"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/golden"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/torch"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_stats.json")

// goldenEntry pins the headline timing numbers of one workload. The
// engine is deterministic, so any divergence is a real modelling change:
// intentional changes regenerate the file with
// `go test -run Golden ./internal/timing -update`, silent drifts fail CI.
// Flag ordering matters: -update is a flag of the test binary, not of
// `go test`, so it must come AFTER the package path — placed before it,
// `go test` rejects it with "flag provided but not defined: -update".
type goldenEntry struct {
	Cycles       uint64  `json:"cycles"`
	WarpInstrs   uint64  `json:"warp_instrs"`
	IPCMilli     uint64  `json:"ipc_milli"` // warp IPC * 1000, truncated
	L1Accesses   uint64  `json:"l1_accesses"`
	L2Accesses   uint64  `json:"l2_accesses"`
	DRAMAccesses uint64  `json:"dram_accesses"`
	L2MissRate   float64 `json:"l2_miss_rate"` // DRAM/L2, rounded to 1e-4
	// Stall attribution, pinned to absolute values: the whole-run W0
	// bucket sums per kind (every non-issuing scheduler slot of every
	// stepped or fast-forwarded cycle lands in exactly one), plus the two
	// counters the fast-forward maintains. The -j1/-jN and
	// legacy-vs-production differentials only compare two runs of the
	// same issue stage; these catch a scheduler change that moves both.
	W0Idle              uint64 `json:"w0_idle"`
	W0DataHazard        uint64 `json:"w0_data_hazard"`
	W0Barrier           uint64 `json:"w0_barrier"`
	W0Memory            uint64 `json:"w0_memory"`
	IdleSlotCycles      uint64 `json:"idle_slot_cycles"`
	FastForwardedCycles uint64 `json:"fast_forwarded_cycles"`
	// SeriesDigest pins the per-bucket series behind those totals (stall
	// kinds, per-core IPC, lane counts): a ledger that charged a slot to
	// the wrong sample bucket leaves every total above unchanged.
	SeriesDigest string `json:"series_digest,omitempty"`
	// PerKernel pins the instruction counts of every kernel family the
	// workload launched (aggregated by name, sorted), so a silent change
	// in any one kernel's codegen or launch count fails CI even when the
	// headline totals happen to cancel out.
	PerKernel []kernelGolden `json:"per_kernel,omitempty"`
	// Hybrid-replay pins, set only by the *_replay_warm entries: the
	// counters a warm run is judged by and a digest of every per-launch
	// KernelStats record, so a replay-path change that moves any single
	// launch's cycles, counters or Replayed mark fails even when the
	// totals agree.
	ReplayHits        uint64 `json:"replay_hits,omitempty"`
	ReplayMisses      uint64 `json:"replay_misses,omitempty"`
	ReplayMemoApplied uint64 `json:"replay_memo_applied,omitempty"`
	ReplayedCycles    uint64 `json:"replayed_cycles,omitempty"`
	LogDigest         string `json:"log_digest,omitempty"`
}

// kernelGolden aggregates one kernel name's launches in a workload,
// including its attributed share of the memory-system traffic (the
// bandwidth-aware hierarchy's per-kernel counters), so a silent change
// in attribution fails CI even when engine-wide totals cancel out.
type kernelGolden struct {
	Name         string `json:"name"`
	Launches     uint64 `json:"launches"`
	WarpInstrs   uint64 `json:"warp_instrs"`
	L2Accesses   uint64 `json:"l2_accesses"`
	DRAMAccesses uint64 `json:"dram_accesses"`
}

// lenetConvLoad is LeNet's first convolution layer (1x1x28x28 input,
// 6 5x5 filters, pad 2) on the implicit-GEMM path — the paper's
// canonical small-cuDNN-kernel shape.
func lenetConvLoad(t testing.TB, ctx *cudart.Context, h *cudnn.Handle) (uint64, int) {
	t.Helper()
	xd := cudnn.TensorDesc{N: 1, C: 1, H: 28, W: 28}
	fd := cudnn.FilterDesc{K: 6, C: 1, R: 5, S: 5}
	cd := cudnn.ConvDesc{Pad: 2, Stride: 1}
	yd := cudnn.TensorDesc{N: 1, C: fd.K, H: cd.OutDim(xd.H, fd.R), W: cd.OutDim(xd.W, fd.S)}
	x := make([]float32, xd.Count())
	for i := range x {
		x[i] = float32(i%23)*0.125 - 1.25
	}
	w := make([]float32, fd.Count())
	for i := range w {
		w[i] = float32(i%11)*0.25 - 1
	}
	px, _ := ctx.Malloc(uint64(4 * xd.Count()))
	ctx.MemcpyF32HtoD(px, x)
	pw, _ := ctx.Malloc(uint64(4 * fd.Count()))
	ctx.MemcpyF32HtoD(pw, w)
	py, _ := ctx.Malloc(uint64(4 * yd.Count()))
	if _, err := h.ConvolutionForward(cudnn.FwdAlgoImplicitGemm, px, xd, pw, fd, cd, py); err != nil {
		t.Fatal(err)
	}
	return py, yd.Count()
}

// perKernelGolden aggregates a stats log by kernel name, sorted, for the
// goldenEntry per-kernel pins.
func perKernelGolden(log []cudart.KernelStats) []kernelGolden {
	byName := map[string]*kernelGolden{}
	for _, k := range log {
		g := byName[k.Name]
		if g == nil {
			g = &kernelGolden{Name: k.Name}
			byName[k.Name] = g
		}
		g.Launches++
		g.WarpInstrs += k.WarpInstrs
		g.L2Accesses += k.L2Accesses
		g.DRAMAccesses += k.DRAMAccesses
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]kernelGolden, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// makeGoldenEntry builds one workload's golden pins from its cycle
// count, stats log and engine counters.
func makeGoldenEntry(cycles uint64, log []cudart.KernelStats, st *timing.Stats, perKernel bool) goldenEntry {
	var instrs uint64
	for _, k := range log {
		instrs += k.WarpInstrs
	}
	e := goldenEntry{
		Cycles:       cycles,
		WarpInstrs:   instrs,
		IPCMilli:     instrs * 1000 / cycles,
		L1Accesses:   st.L1Accesses,
		L2Accesses:   st.L2Accesses,
		DRAMAccesses: st.DRAMAccesses,

		IdleSlotCycles:      st.IdleSlotCycles,
		FastForwardedCycles: st.FastForwardedCycles,
		SeriesDigest:        timing.SeriesDigest(st),
	}
	w0 := timing.StallTotals(st)
	e.W0Idle, e.W0DataHazard, e.W0Barrier, e.W0Memory = w0[0], w0[1], w0[2], w0[3]
	if e.L2Accesses > 0 {
		e.L2MissRate = float64(e.DRAMAccesses*10000/e.L2Accesses) / 10000
	}
	if perKernel {
		e.PerKernel = perKernelGolden(log)
	}
	return e
}

func goldenRun(t *testing.T, load func(testing.TB, *cudart.Context, *cudnn.Handle) (uint64, int)) goldenEntry {
	t.Helper()
	snap := runWorkload(t, 1, load)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return makeGoldenEntry(snap.Cycles, snap.Log, &snap.Stats, false)
}

// goldenTransformer pins the stream-overlapped transformer-encoder
// forward batch (2 sequences on 2 concurrent streams, -j1), including
// the per-kernel instruction counts of every kernel family it launches.
func goldenTransformer(t *testing.T) goldenEntry {
	t.Helper()
	snap := runTransformer(t, 1, 2, true)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return makeGoldenEntry(snap.Cycles, snap.Log, &snap.Stats, true)
}

// goldenStreams pins the concurrent_streams-shaped workload: three
// streams each carrying an async host-device copy feeding a kernel, so
// the copy engine, stream-ordered admission and the idle-cycle
// fast-forward path (cores stalled while transfers are mid-flight) are
// all locked by golden numbers beyond the transformer workload.
func goldenStreams(t *testing.T) goldenEntry {
	t.Helper()
	snap := runStreams(t, 1, 3, true, true)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return makeGoldenEntry(snap.TotalCycles, snap.Log, &snap.Stats, true)
}

// goldenServe pins the inference-serving scenario: a 16-request pinned
// arrival trace (one request every 20k cycles, 6 tokens, 2 chain
// iterations) served by the continuous-batching scheduler on a 1-layer
// encoder at -j1, including per-kernel instruction counts. Cycles here
// are the serving clock (drain deltas plus idle fast-forwards), so the
// whole admission/batching path is locked, not just the engine.
func goldenServe(t *testing.T) goldenEntry {
	t.Helper()
	tr := serve.Trace{}
	for i := 0; i < 16; i++ {
		tr.Requests = append(tr.Requests, serve.Request{
			ID: i, Arrival: uint64(i) * 20_000, SeqLen: 6, Steps: 2,
		})
	}
	cfg := serve.Config{
		Model: torch.TransformerConfig{
			Layers: 1, Heads: 2, DModel: 16, FF: 32, Vocab: 29, MaxSeq: 8,
		},
	}
	res, err := serve.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return makeGoldenEntry(res.TotalCycles, res.Log, &res.Stats, true)
}

// goldenDecode pins the KV-cached autoregressive decode workload: two
// 3-token prompts greedy-decoded for 4 tokens each on concurrent
// streams at -j1, including per-kernel launch and instruction counts of
// the cache-aware attention kernels (append, cached QK/AV, causal
// softmax, logit GEMV, argmax).
func goldenDecode(t *testing.T) goldenEntry {
	t.Helper()
	snap := runDecode(t, 1, 2, true, false, 1)
	checkDRAMLaw(t, snap.DRAMServed, &snap.Stats, snap.Log)
	return makeGoldenEntry(snap.Cycles, snap.Log, &snap.Stats, true)
}

// TestGoldenStats locks in the cycle/IPC/L2 numbers of one GEMM, one
// LeNet conv layer and the stream-overlapped transformer encoder under
// the GTX 1050 model so silent timing drifts fail CI. Run with -update
// to accept an intentional modelling change.
func TestGoldenStats(t *testing.T) {
	got := map[string]goldenEntry{
		"gemm_64x48x56":                goldenRun(t, gemmLoad),
		"lenet_conv1_igemm":            goldenRun(t, lenetConvLoad),
		"transformer_encoder_streams":  goldenTransformer(t),
		"concurrent_streams_asynccopy": goldenStreams(t),
		"serve_small":                  goldenServe(t),
		"decode_small":                 goldenDecode(t),
		"train_small":                  goldenTrain(t),
		"transformer_replay_warm":      goldenTransformerReplayWarm(t),
		"decode_replay_warm":           goldenDecodeReplayWarm(t),
	}
	golden.Check(t, filepath.Join("testdata", "golden_stats.json"), *update, got, nil)
}

// TestGoldenStatsStable double-checks the golden workloads really are
// deterministic run-to-run before we trust them as regression anchors.
func TestGoldenStatsStable(t *testing.T) {
	a := goldenRun(t, gemmLoad)
	b := goldenRun(t, gemmLoad)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("golden workload is not deterministic:\n%+v\n%+v", a, b)
	}
}
