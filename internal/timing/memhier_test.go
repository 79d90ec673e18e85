package timing

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// runSqadd launches the eqPTX kernel once on a fresh context + engine
// with the given config and grid, and returns the engine for inspection.
func runSqadd(t *testing.T, cfg Config, ctas, threads int) *Engine {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	if _, err := ctx.RegisterModule(eqPTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("sqadd")
	if err != nil {
		t.Fatal(err)
	}
	n := ctas * threads
	px, _ := ctx.Malloc(uint64(4 * n))
	py, _ := ctx.Malloc(uint64(4 * n))
	ctx.MemcpyF32HtoD(px, make([]float32, n))
	ctx.MemcpyF32HtoD(py, make([]float32, n))
	p := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(n))
	g, err := ctx.M.NewGrid(kern, exec.Dim3{X: ctas}, exec.Dim3{X: threads}, p.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunGrid(g); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSectorRule pins the explicit sector-size rule that unifies the old
// split (coalescing by L1 line, partition routing by L2 line): segments
// are min(L1 line, L2 line) bytes, so no segment ever straddles an L2
// line and partOf routes each one to exactly one partition.
func TestSectorRule(t *testing.T) {
	cases := []struct {
		name       string
		l1, l2     int
		wantSector uint64
	}{
		{"equal_128", 128, 128, 128},
		{"l2_smaller", 128, 64, 64},
		{"l1_smaller", 64, 128, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := GTX1050()
			cfg.L1.LineBytes = tc.l1
			cfg.L2.LineBytes = tc.l2
			if got := cfg.sectorBytes(); got != tc.wantSector {
				t.Fatalf("sectorBytes() = %d, want %d", got, tc.wantSector)
			}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			sector := cfg.sectorBytes()
			// property: a sector-aligned block always lives inside one L2
			// line, so its first and last byte route to the same partition
			f := func(raw uint32) bool {
				base := uint64(raw) &^ (sector - 1)
				lineOK := base/uint64(cfg.L2.LineBytes) == (base+sector-1)/uint64(cfg.L2.LineBytes)
				return lineOK && eng.partOf(base) == eng.partOf(base+sector-1)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSectorRuleSegmentCounts pins the end-to-end effect for configs
// where the two line sizes differ. One warp touches 128 contiguous bytes
// per buffer:
//   - equal lines (128/128): one sector per buffer access, the baseline.
//   - L2 line 64B < L1 line 128B: sectors shrink to 64B, so the
//     coalescer emits twice the segments; the second sector of each L1
//     line rides the first's in-flight fill (MSHR merge), so partition
//     traffic stays equal — but every segment now fits one L2 line,
//     where the old code shipped a 128B segment straddling two L2 lines
//     to a partition picked by its base address alone.
//   - L1 line 64B = sector 64B < L2 line 128B: no L1 merging, so the
//     partition sees exactly twice the baseline accesses.
func TestSectorRuleSegmentCounts(t *testing.T) {
	base := runSqadd(t, GTX1050(), 1, 32) // 32 lanes x 4B = 128B per buffer
	baseAcc := base.Stats().L2Accesses
	baseSegs := base.Stats().MemSegments

	smallL2 := GTX1050()
	smallL2.L2.LineBytes = 64
	merged := runSqadd(t, smallL2, 1, 32)
	if got := merged.Stats().MemSegments; got != 2*baseSegs {
		t.Errorf("64B sectors (small L2): coalesced segments = %d, want 2x baseline %d", got, baseSegs)
	}
	if got := merged.Stats().L2Accesses; got != baseAcc {
		t.Errorf("64B sectors (small L2): L2 accesses = %d, want baseline %d (same-L1-line sectors merge)", got, baseAcc)
	}

	smallL1 := GTX1050()
	smallL1.L1.LineBytes = 64
	split := runSqadd(t, smallL1, 1, 32)
	if got := split.Stats().MemSegments; got != 2*baseSegs {
		t.Errorf("64B sectors (small L1): coalesced segments = %d, want 2x baseline %d", got, baseSegs)
	}
	if got := split.Stats().L2Accesses; got != 2*baseAcc {
		t.Errorf("64B sectors (small L1): L2 accesses = %d, want 2x baseline %d", got, 2*baseAcc)
	}
}

// TestLoadDependentLatency is the headline acceptance property of the
// bandwidth-aware hierarchy: the same streaming kernel at higher
// occupancy must see measurably higher average segment latency — the
// partition ingress/port, L2 MSHRs, DRAM banks and response path are
// finite, so latency responds to load instead of being a constant adder.
func TestLoadDependentLatency(t *testing.T) {
	low := runSqadd(t, GTX1050(), 1, 64)
	high := runSqadd(t, GTX1050(), 40, 64)
	lowLat := low.Stats().AvgSegmentLatency()
	highLat := high.Stats().AvgSegmentLatency()
	if lowLat <= 0 || highLat <= 0 {
		t.Fatalf("segment latency not recorded: low %.1f high %.1f", lowLat, highLat)
	}
	if highLat <= lowLat*1.1 {
		t.Fatalf("latency not load-dependent: %.1f cycles at 1 CTA vs %.1f at 40 CTAs", lowLat, highLat)
	}
	if high.Stats().IngressStallCycles == 0 {
		t.Error("high occupancy produced no ingress stalls despite finite partition bandwidth")
	}
	t.Logf("avg segment latency: %.1f (1 CTA) -> %.1f (40 CTAs)", lowLat, highLat)
}

// fillPTX is a store-only kernel: y[i] = 7, no prior load, so every
// store misses the L1 (write-through no-allocate) and reaches the L2 as
// a write — the write-allocate path that dirties L2 lines.
const fillPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry fillk(
	.param .u64 pY,
	.param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .b32 %r<7>;
	.reg .b64 %rd<4>;

	ld.param.u64 %rd1, [pY];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.u32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.u32 %rd2, %r5, 4;
	add.s64 %rd3, %rd1, %rd2;
	mov.u32 %r6, 7;
	st.global.u32 [%rd3], %r6;
DONE:
	ret;
}
`

// TestDirtyEvictionWriteback pins the write-back L2: a store-only
// working set larger than the L2 dirties more lines than the cache
// holds, so evictions must turn into real DRAM write traffic (before
// this model dirty evictions silently vanished).
func TestDirtyEvictionWriteback(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ctx.RegisterModule(fillPTX); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("fillk")
	if err != nil {
		t.Fatal(err)
	}
	// 128K stores x 4B = 512KB of dirty lines, 2x the 256KB L2
	n := 128 << 10
	py, _ := ctx.Malloc(uint64(4 * n))
	p := cudart.NewParams().Ptr(py).U32(uint32(n))
	g, err := ctx.M.NewGrid(kern, exec.Dim3{X: n / 64}, exec.Dim3{X: 64}, p.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunGrid(g); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.L2Writebacks == 0 {
		t.Fatal("L2-overflowing dirty working set produced no writebacks")
	}
	var dramWrites uint64
	for _, ch := range eng.Partitions() {
		_, w, _, _ := ch.Totals()
		dramWrites += w
	}
	if dramWrites == 0 {
		t.Fatal("no DRAM write traffic despite dirty evictions")
	}
	t.Logf("writebacks=%d dram_writes=%d", st.L2Writebacks, dramWrites)
}

// ledgerRig drives the sqadd kernel over zeroed buffers (y += 0 leaves
// memory as it was, so a replayed launch's memo keeps matching) and
// keeps every kernel ticket it submits.
type ledgerRig struct {
	t       *testing.T
	ctx     *cudart.Context
	eng     *Engine
	tickets []*Ticket
}

func newLedgerRig(t *testing.T, cfg Config, opts ...Option) *ledgerRig {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for _, src := range []string{eqPTX, oobSharedPTX} {
		if _, err := ctx.RegisterModule(src); err != nil {
			t.Fatal(err)
		}
	}
	return &ledgerRig{t: t, ctx: ctx, eng: eng}
}

// buffers returns an x/y pair of n zeroed floats.
func (r *ledgerRig) buffers(n int) (px, py uint64) {
	px, _ = r.ctx.Malloc(uint64(4 * n))
	py, _ = r.ctx.Malloc(uint64(4 * n))
	r.ctx.MemcpyF32HtoD(px, make([]float32, n))
	r.ctx.MemcpyF32HtoD(py, make([]float32, n))
	return px, py
}

// submit queues one launch of the named kernel on a stream.
func (r *ledgerRig) submit(stream int, kernel string, ctas int, params []byte) *Ticket {
	r.t.Helper()
	_, kern, err := r.ctx.LookupKernel(kernel)
	if err != nil {
		r.t.Fatal(err)
	}
	g, err := r.ctx.M.NewGrid(kern, exec.Dim3{X: ctas}, exec.Dim3{X: 64}, params, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	tk, err := r.eng.Submit(g, stream)
	if err != nil {
		r.t.Fatal(err)
	}
	r.tickets = append(r.tickets, tk)
	return tk
}

func (r *ledgerRig) sqadd(stream int, px, py uint64, n int) *Ticket {
	return r.submit(stream, "sqadd", (n+63)/64, cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(n)).Bytes())
}

func (r *ledgerRig) drain() {
	r.t.Helper()
	if err := r.eng.Drain(); err != nil {
		r.t.Fatal(err)
	}
}

// TestPerKernelMemCounters locks the counter ledger's invariant: the
// engine totals are the sum of the per-kernel records on the tickets —
// whole MemCounters records, segment latency sums included, and the warp
// instruction counts — however the kernels retired: in detail next to
// each other, from a replay entry, as one memoized batch, or not at all
// because a neighbour faulted.
func TestPerKernelMemCounters(t *testing.T) {
	replay := GTX1050()
	replay.ReplayEnabled = true
	rows := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, r *ledgerRig)
	}{
		{"concurrent_grids_and_copy", GTX1050(), func(t *testing.T, r *ledgerRig) {
			for i := 0; i < 3; i++ {
				n := 64 * (i + 1)
				px, py := r.buffers(n)
				r.sqadd(i, px, py, n) // separate streams: concurrent grids
			}
			r.eng.SubmitCopy(1, 4096, nil) // behind stream 1's kernel
			r.drain()
			for i, tk := range r.tickets {
				if tk.mem.L2Accesses == 0 {
					t.Errorf("ticket %d carries no L2 traffic", i)
				}
			}
		}},
		{"replay_per_launch_warm", replay, func(t *testing.T, r *ledgerRig) {
			px, py := r.buffers(192)
			for i := 0; i < 3; i++ { // detailed, hit + capture, hit + apply
				r.sqadd(0, px, py, 192)
				r.drain()
			}
			st := r.eng.Stats()
			if !r.tickets[2].stats.Replayed || st.ReplayMemoApplied != 1 || st.ReplayBatchHits != 0 {
				t.Fatalf("third launch replayed=%v, %d memos applied, %d batch hits: not a warm per-launch iteration",
					r.tickets[2].stats.Replayed, st.ReplayMemoApplied, st.ReplayBatchHits)
			}
		}},
		{"replay_batch_rung", replay, func(t *testing.T, r *ledgerRig) {
			px, py := r.buffers(192)
			qx, qy := r.buffers(64)
			for i := 0; i < 6; i++ { // the rung fires once two applied batches were sighted
				r.sqadd(0, px, py, 192)
				r.sqadd(1, qx, qy, 64)
				r.sqadd(1, px, py, 192)
				r.drain()
			}
			if r.eng.Stats().ReplayBatchHits == 0 {
				t.Fatal("no batch retired as one memoized unit")
			}
		}},
		{"mem_segments_every_retirement", replay, func(t *testing.T, r *ledgerRig) {
			// the hardware oracle's traffic count of one signature is the
			// same however its launch retires, at -j1 and -j2
			walk := func(r *ledgerRig) (segs []uint32, how map[string]bool) {
				px, py := r.buffers(192)
				qx, qy := r.buffers(64)
				how = map[string]bool{}
				for i := 0; i < 6; i++ {
					rungHits := r.eng.Stats().ReplayBatchHits
					tk := r.sqadd(0, px, py, 192)
					r.sqadd(1, qx, qy, 64)
					r.sqadd(1, px, py, 192)
					r.drain()
					switch {
					case r.eng.Stats().ReplayBatchHits > rungHits:
						how["batch rung"] = true
					case tk.stats.Replayed:
						how["per-launch replay"] = true
					default:
						how["detailed"] = true
					}
					segs = append(segs, tk.stats.OracleSegments)
				}
				return segs, how
			}
			j1, how := walk(r)
			j2, _ := walk(newLedgerRig(t, replay, WithWorkers(2)))
			if len(how) != 3 {
				t.Fatalf("the launch retired %v; want detailed, per-launch replay and batch rung", how)
			}
			if j1[0] == 0 || slices.ContainsFunc(j1, func(s uint32) bool { return s != j1[0] }) || !slices.Equal(j1, j2) {
				t.Fatalf("OracleSegments per retirement: %v at -j1, %v at -j2; want one non-zero value", j1, j2)
			}
		}},
		{"batch_aborted_by_fault", GTX1050(), func(t *testing.T, r *ledgerRig) {
			px, py := r.buffers(64 * 400)
			qx, qy := r.buffers(64)
			r.sqadd(1, qx, qy, 64)
			long := r.sqadd(0, px, py, 64*400)
			// admitted when the short kernel retires, placed (left-over
			// policy) when the long one has dispatched its last CTA and
			// still waits on their loads
			r.submit(1, "oob", 2, nil)
			if err := r.eng.Drain(); err == nil {
				t.Fatal("expected the faulting batch to error")
			}
			if _, err := long.Stats(); err == nil || long.mem.L2Accesses == 0 {
				t.Fatalf("long kernel: err %v, record %+v: want it aborted with traffic already counted", err, long.mem)
			}
			r.sqadd(0, qx, qy, 64) // the engine stays usable and the ledger clean
			r.drain()
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newLedgerRig(t, row.cfg)
			row.run(t, r)
			var sum MemCounters
			var instrs uint64
			for _, tk := range r.tickets {
				sum.add(tk.mem)
				instrs += tk.stats.WarpInstrs
			}
			st := r.eng.Stats()
			if sum != st.MemCounters || instrs != st.Instructions {
				t.Fatalf("summed ticket records %+v, %d instructions; engine totals %+v, %d",
					sum, instrs, st.MemCounters, st.Instructions)
			}
			if sum.SegServed == 0 || sum.SegCycles == 0 {
				t.Fatalf("no segment latency on the tickets: %+v", sum)
			}
		})
	}
}

// TestMSHRPoolThrottles pins the L2 MSHR pool as a real within-batch
// resource: shrinking the pool to 2 slots per partition must slow a
// miss-heavy workload down versus the default 64 slots, because the
// batch's misses hold slots (provisionally from phase 1) and later
// misses wait at absolute time for the earliest to free.
func TestMSHRPoolThrottles(t *testing.T) {
	wide := runSqadd(t, GTX1050(), 40, 64)
	narrowCfg := GTX1050()
	narrowCfg.L2.MSHRs = 2
	narrow := runSqadd(t, narrowCfg, 40, 64)
	if narrow.Cycle() <= wide.Cycle() {
		t.Fatalf("2 L2 MSHRs (%d cycles) not slower than 64 (%d cycles) — the pool is not throttling",
			narrow.Cycle(), wide.Cycle())
	}
	if narrow.Stats().AvgSegmentLatency() <= wide.Stats().AvgSegmentLatency() {
		t.Fatalf("2 L2 MSHRs avg latency %.1f not above 64-slot %.1f",
			narrow.Stats().AvgSegmentLatency(), wide.Stats().AvgSegmentLatency())
	}
}

// TestSegmentMonotonicity is the timing-level twin of the dram package's
// property: under heavy load no partition-serviced segment may complete
// before the cycle its warp issued it — all resource horizons only push
// completion later, never earlier.
func TestSegmentMonotonicity(t *testing.T) {
	eng := runSqadd(t, GTX1050(), 40, 64)
	st := eng.Stats()
	if st.SegServed == 0 {
		t.Fatal("no partition-serviced segments")
	}
	minPossible := uint64(st.SegServed) * uint64(GTX1050().L2Lat)
	if st.SegCycles < minPossible {
		t.Fatalf("total segment latency %d below the %d floor implied by L2 latency alone — some segment completed before it could",
			st.SegCycles, minPossible)
	}
}
