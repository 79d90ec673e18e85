package main

// The six workloads. Each is composed from the public constructors of
// torch / cudnn / cudart / timing / mnist so that set-up and the timed
// region are separate calls; CPU oracles run after the clock stops.
// serve_diurnal and dp_train_2dev call their drivers whole (serve.Run and
// multigpu.RunDPTrain own device and engine), so their set-up is timed
// on a twin — the same constructors the driver calls — and the driver's
// own model construction sits inside host_cpu_s.
//
// The seed changes values (weights, token ids, image noise), never
// shapes: the amount of simulated work per pass is the same on every
// seed, so host-time metrics are comparable across seeds.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/hwmodel"
	"repro/internal/mnist"
	"repro/internal/multigpu"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/torch"
)

//go:embed ptx/strided_saxpy.ptx
var stridedSaxpyPTX string

//go:embed traces/diurnal.trace
var diurnalTrace []byte

// scale holds the iteration counts — the only thing the benchmark may
// size. The host this was sized on slows and speeds by several percent
// from second to second, so fullScale keeps a pass near 1-2 s: a run then
// holds enough passes for a steady median. smokeScale is for
// bench_test.go.
type scale struct {
	lenetImages    int
	streamLaunches int    // unit-stride strided_saxpy launches, 2048 CTAs x 128
	campedLaunches int    // bank-camped launches, 8 CTAs x 128
	xfIters        int    // forward batches of 4 seqs x 12 tokens
	trainSteps     int    // TrainStep calls of 8 tokens
	dpSteps        int    // data-parallel steps of 8 tokens per rank
	serveRequests  [3]int // requests kept from the diurnal trace's morning, peak and evening regimes
}

// diurnalRegimes are the request counts of the three regimes of
// traces/diurnal.trace: sparse morning, bursty midday peak, sparse evening.
var diurnalRegimes = [3]int{6, 10, 6}

var (
	fullScale  = scale{lenetImages: 4, streamLaunches: 2, campedLaunches: 1, xfIters: 1012, trainSteps: 4, dpSteps: 2, serveRequests: [3]int{3, 5, 3}}
	smokeScale = scale{lenetImages: 1, streamLaunches: 1, campedLaunches: 1, xfIters: 12, trainSteps: 2, dpSteps: 1, serveRequests: [3]int{1, 3, 1}}
)

// twinIters is how many leading iterations of xf_hybrid the all-detailed
// twin repeats for replay_agree_pct (cold, capture and two warm ones).
const twinIters = 4

// mode says how a pass is instrumented.
type mode struct {
	tr         *tracer // spans around runner calls and iterations; nil = tracing off
	functional bool    // interpreter-only twin: functionalRunner instead of the engine
	detailed   bool    // hybrid workloads: replay off (the all-detailed twin)
	iters      int     // >0 caps the iteration count (twins of xf_hybrid)
	workers    int     // dp_train_2dev host workers; 0 = min(nproc, 2)
	// bugs injects a faulty instruction implementation into the simulated
	// device (paper §III-D); bench_test.go uses it to show the oracles bite
	bugs exec.BugSet
}

// install puts the mode's runner on the context and returns the
// functional runner when that is what it installed.
func (m mode) install(ctx *cudart.Context, eng *timing.Engine) *functionalRunner {
	switch {
	case m.functional:
		fr := &functionalRunner{tr: m.tr}
		ctx.SetRunner(fr)
		return fr
	case m.tr != nil:
		ctx.SetRunner(&spanRunner{inner: timing.Runner{E: eng}, tr: m.tr})
	default:
		ctx.SetRunner(timing.Runner{E: eng})
	}
	return nil
}

// outcome is what one pass produced, collected after the clock stops.
type outcome struct {
	cycles       uint64  // modelled cycles of the timed region
	iters        int     // iterations run, where every iteration commits the same instructions (xf_hybrid)
	prefixCycles uint64  // hybrid: cycles of the iterations the detailed twin repeats
	warpInstrs   uint64  // sum of KernelStats.WarpInstrs (replayed launches count their memoized instructions)
	launches     int     // kernel launches
	digest       string  // statistics hash: cycles, per-kernel counts, replay counters, output bytes
	hwAgreePct   float64 // 100 unless the workload has a hardware reference
	stats        *timing.Stats
	clockMHz     float64
	touchedBytes int
	extra        map[string]float64 // workload-specific per-layer values
}

// checks counts oracle comparisons.
type checks struct{ attempted, failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

// instance is one set-up of a workload, ready to run once.
type instance struct {
	setupS float64                     // host CPU seconds the set-up took, oracle construction excluded
	run    func() error                // the timed region
	finish func() (*outcome, error)    // gather counters (untimed)
	verify func(o *outcome, c *checks) // CPU oracles and references (untimed)
}

type workload struct {
	name   string
	why    string
	hybrid bool // runs under hybrid replay; gets the all-detailed twin
	// interpreted is how many leading iterations interpret kernels, and so
	// how many the functional twin repeats; 0 = all of them
	interpreted int
	// driver marks a workload that calls its driver whole: no runner can
	// be swapped in, so it has no spans and no functional twin
	driver bool
	// parallel marks a workload with host workers; it gets a workers=1 twin
	parallel bool
	params   func(sc scale) string
	build    func(seed int64, sc scale, m mode) (*instance, error)
}

var workloads = []workload{
	{
		name: "lenet_mnist",
		why:  "paper's LeNet/MNIST on the detailed GTX 1050: FFT/Winograd/GEMM conv, LRN, pool, softmax; only workload with a hardware reference; interpreter and timing core share host time",
		params: func(sc scale) string {
			return fmt.Sprintf("images=%d gpu=GTX1050 algos=default", sc.lenetImages)
		},
		build: buildLenet,
	},
	{
		name: "membound_stream",
		why:  "strided_saxpy, unit-stride streaming then DRAM bank camping: the timing core's stall scan and the L2/DRAM path do most of the work, the interpreter little; set-up is bulk HtoD",
		params: func(sc scale) string {
			return fmt.Sprintf("stream=%dx(2048x128) camped=%dx(8x128) gpu=GTX1050", sc.streamLaunches, sc.campedLaunches)
		},
		build: buildMembound,
	},
	{
		name:   "xf_hybrid",
		why:    "transformer forward batch repeated under hybrid replay: two cold iterations, then warm ones that bypass the interpreter; cost is host code, signature hashing and memo match/apply",
		hybrid: true, interpreted: 2, // cold, then memo capture; warm iterations apply memos
		params: func(sc scale) string {
			return fmt.Sprintf("iters=%d seqs=4 tokens=12 streams=4 replay=hybrid", sc.xfIters)
		},
		build: buildXF,
	},
	{
		name:   "train_hybrid",
		why:    "transformer training steps under hybrid replay: timing is memoized but weights mutate so every step re-interprets; about 90% interpreter, the workload an exec speed-up must move",
		hybrid: true,
		params: func(sc scale) string {
			return fmt.Sprintf("steps=%d tokens=8 replay=hybrid", sc.trainSteps)
		},
		build: buildTrain,
	},
	{
		name: "serve_diurnal", driver: true,
		why: "continuous-batching serve of the diurnal prefill+decode trace: thousands of tiny launches on up to 5 streams; per-launch fixed cost, dispatcher and free-the-delta sweeps dominate",
		params: func(sc scale) string {
			return fmt.Sprintf("trace=diurnal requests=%d+%d+%d mode=detailed", sc.serveRequests[0], sc.serveRequests[1], sc.serveRequests[2])
		},
		build: buildServe,
	},
	{
		name: "dp_train_2dev", driver: true, parallel: true,
		why: "data-parallel training on 2 simulated GPUs with 2 host workers: the only workload with host parallelism and the multigpu/nvlink coordinator on the path",
		params: func(sc scale) string {
			return fmt.Sprintf("devices=2 steps=%d tokens=8", sc.dpSteps)
		},
		build: buildDP,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// subSeed derives an independent stream (weights, tokens, data) from the
// run seed.
func subSeed(seed int64, stream int64) int64 { return seed*1000003 + stream }

const (
	seedWeights = iota
	seedTokens
	seedData
)

func hostWorkers() int { return min(runtime.NumCPU(), 2) }

// ---------------------------------------------------------------------------
// statistics hash

type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digester) f32(vs []float32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		d.h.Write(b[:])
	}
}

// log folds the per-kernel statistics in launch order.
func (d *digester) log(log []cudart.KernelStats) (instrs uint64) {
	for i := range log {
		k := &log[i]
		d.h.Write([]byte(k.Name))
		r := uint64(0)
		if k.Replayed {
			r = 1
		}
		d.u64(k.Cycles, k.WarpInstrs, k.L2Accesses, k.DRAMAccesses, r)
		instrs += k.WarpInstrs
	}
	return instrs
}

func (d *digester) replay(st *timing.Stats) {
	d.u64(st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayedCycles, st.ReplayMemoApplied)
}

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }

// engineOutcome fills the fields every composed workload reads off its
// own context and engine.
func engineOutcome(ctx *cudart.Context, eng *timing.Engine, d *digester) *outcome {
	log := ctx.KernelStatsLog()
	o := &outcome{
		cycles: eng.Cycle(), launches: len(log), hwAgreePct: 100,
		stats: eng.Stats(), clockMHz: eng.Config().ClockMHz,
		touchedBytes: ctx.Mem.TouchedBytes(), extra: map[string]float64{},
	}
	o.warpInstrs = d.log(log)
	d.u64(o.cycles)
	d.replay(o.stats)
	powerExtras(o)
	return o
}

// powerExtras runs the GPUWattch-style power model over the run's
// engine counters (paper Fig. 8).
func powerExtras(o *outcome) {
	pb := power.DefaultModel().Average(o.stats, o.cycles, o.clockMHz)
	o.extra["power.total_w"] = pb.Total()
	o.extra["power.core_pct"] = 100 * pb.Core / pb.Total()
}

// freeTransients releases everything allocated since the baseline so the
// first-fit allocator re-issues identical addresses next iteration — the
// replay cache's hit condition.
func freeTransients(ctx *cudart.Context, baseline map[uint64]bool) error {
	for _, a := range ctx.Alloc.LiveAllocations() {
		if !baseline[a] {
			if err := ctx.Free(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func liveSet(ctx *cudart.Context) map[uint64]bool {
	s := map[uint64]bool{}
	for _, a := range ctx.Alloc.LiveAllocations() {
		s[a] = true
	}
	return s
}

func argmax(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m || math.IsNaN(d) {
			m = d
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// lenet_mnist

func buildLenet(seed int64, sc scale, m mode) (*instance, error) {
	t0 := cpuSeconds()
	n := sc.lenetImages
	dev, err := torch.NewDevice(m.bugs)
	if err != nil {
		return nil, err
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		return nil, err
	}
	fr := m.install(dev.Ctx, eng)
	model, err := mnist.NewLeNet(dev, subSeed(seed, seedWeights), mnist.DefaultAlgos())
	if err != nil {
		return nil, err
	}
	imgs, _ := mnist.NewDataset(subSeed(seed, seedData)).Batch(n)
	inst := &instance{setupS: cpuSeconds() - t0}

	var probs []float32
	inst.run = func() error {
		probs, err = model.Forward(imgs, n)
		return err
	}
	inst.finish = func() (*outcome, error) {
		defer eng.Close()
		d := newDigester()
		o := engineOutcome(dev.Ctx, eng, d)
		d.f32(probs)
		o.digest = d.sum()
		if fr != nil {
			o.warpInstrs = fr.instrs
		}
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		// the sample's self-check: simulated GPU classes == CPU classes
		cpu := model.ForwardCPU(imgs, n)
		for i := 0; i < n; i++ {
			g := argmax(probs[i*mnist.NumClasses : (i+1)*mnist.NumClasses])
			h := argmax(cpu[i*mnist.NumClasses : (i+1)*mnist.NumClasses])
			c.expect(g == h, "lenet image %d: simulated class %d, CPU class %d", i, g, h)
		}
		// hardware correlation (paper §IV): same network, same weights, on
		// the hwmodel oracle; per-launch samples pair by position
		t0 := time.Now()
		hwDev, err := torch.NewDevice(exec.BugSet{})
		if err != nil {
			c.expect(false, "oracle device: %v", err)
			return
		}
		oracle := hwmodel.GTX1050()
		hwDev.Ctx.SetRunner(oracle)
		hwModel, err := mnist.NewLeNet(hwDev, subSeed(seed, seedWeights), mnist.DefaultAlgos())
		if err == nil {
			_, err = hwModel.Forward(imgs, n)
		}
		simLog := dev.Ctx.KernelStatsLog()
		c.expect(err == nil && len(oracle.Samples) == len(simLog), "oracle pass: %v (%d samples for %d launches)", err, len(oracle.Samples), len(simLog))
		if err != nil || len(oracle.Samples) != len(simLog) {
			return
		}
		samples := make([]stats.KernelTime, len(simLog))
		for i, k := range simLog {
			samples[i] = stats.KernelTime{Name: k.Name, SimCycles: float64(k.Cycles), HWCycles: oracle.Samples[i].Cycles, Launches: 1}
		}
		corr := stats.Correlate(samples)
		o.hwAgreePct = 100 - 100*corr.OverallError
		o.extra["hwmodel.pearson"] = corr.Pearson
		o.extra["hwmodel.oracle_pass_ms"] = time.Since(t0).Seconds() * 1e3
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// membound_stream

const (
	saxpyThreads    = 128
	saxpyStreamCTAs = 2048
	saxpyCampedCTAs = 8
)

// saxpyFill fills a host buffer with small multiples of 0.25 from a
// cheap seeded generator: every partial sum is exact in float32, so the
// host oracle is an equality check.
func saxpyFill(buf []float32, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float32(x&63) * 0.25
	}
}

func buildMembound(seed int64, sc scale, m mode) (*instance, error) {
	t0 := cpuSeconds()
	cfg := timing.GTX1050()
	ctx := cudart.NewContext(m.bugs)
	eng, err := timing.New(cfg)
	if err != nil {
		return nil, err
	}
	fr := m.install(ctx, eng)
	if _, err := ctx.RegisterModule(stridedSaxpyPTX); err != nil {
		return nil, err
	}
	// every lane of a camped launch lands in a different row of the same
	// DRAM bank of the same partition (paper §V-B)
	campStride := cfg.DRAM.RowBytes * cfg.DRAM.NumBanks / 4
	type buffers struct {
		n, stride int
		x, y      []float32
		px, py    uint64
	}
	upload := func(n, stride int, stream int64) (*buffers, error) {
		b := &buffers{n: n, stride: stride, x: make([]float32, n*stride), y: make([]float32, n*stride)}
		saxpyFill(b.x, subSeed(seed, seedData+2*stream))
		saxpyFill(b.y, subSeed(seed, seedData+2*stream+1))
		for _, p := range []struct {
			host []float32
			dev  *uint64
		}{{b.x, &b.px}, {b.y, &b.py}} {
			addr, err := ctx.Malloc(uint64(4 * len(p.host)))
			if err != nil {
				return nil, err
			}
			ctx.MemcpyF32HtoD(addr, p.host)
			*p.dev = addr
		}
		return b, nil
	}
	unit, err := upload(saxpyStreamCTAs*saxpyThreads, 1, 0)
	if err != nil {
		return nil, err
	}
	camped, err := upload(saxpyCampedCTAs*saxpyThreads, campStride, 1)
	if err != nil {
		return nil, err
	}
	inst := &instance{setupS: cpuSeconds() - t0}

	launch := func(b *buffers, ctas, it int) error {
		return m.tr.iteration(it, func() error {
			p := cudart.NewParams().Ptr(b.px).Ptr(b.py).U32(uint32(b.stride)).U32(uint32(b.n))
			_, err := ctx.Launch("strided_saxpy", exec.Dim3{X: ctas}, exec.Dim3{X: saxpyThreads}, p, 0)
			return err
		})
	}
	inst.run = func() error {
		for i := 0; i < sc.streamLaunches; i++ {
			if err := launch(unit, saxpyStreamCTAs, i); err != nil {
				return err
			}
		}
		for i := 0; i < sc.campedLaunches; i++ {
			if err := launch(camped, saxpyCampedCTAs, sc.streamLaunches+i); err != nil {
				return err
			}
		}
		return nil
	}
	var gotUnit, gotCamped []float32
	inst.finish = func() (*outcome, error) {
		defer eng.Close()
		d := newDigester()
		o := engineOutcome(ctx, eng, d)
		gotUnit = ctx.MemcpyF32DtoH(unit.py, unit.n)
		gotCamped = make([]float32, camped.n) // the touched elements only
		for i := range gotCamped {
			gotCamped[i] = ctx.MemcpyF32DtoH(camped.py+uint64(4*i*camped.stride), 1)[0]
		}
		d.f32(gotUnit)
		d.f32(gotCamped)
		o.digest = d.sum()
		if fr != nil {
			o.warpInstrs = fr.instrs
		}
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		for _, v := range []struct {
			name     string
			b        *buffers
			got      []float32
			launches int
		}{{"stream", unit, gotUnit, sc.streamLaunches}, {"camped", camped, gotCamped, sc.campedLaunches}} {
			bad := -1
			for i := 0; i < v.b.n && bad < 0; i++ {
				j := i * v.b.stride
				want := v.b.y[j]
				for k := 0; k < v.launches; k++ {
					want += v.b.x[j]
				}
				if v.got[i] != want {
					bad = j
				}
			}
			c.expect(bad < 0, "strided_saxpy %s: element %d differs from the host result", v.name, bad)
		}
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// xf_hybrid and train_hybrid share the sample encoder

// sampleModel is the encoder shape every transformer driver of the repo
// uses (core.DefaultTransformerConfig, serve.DefaultModel).
func sampleModel() torch.TransformerConfig { return serve.DefaultModel() }

func randomTokens(rng *rand.Rand, n, vocab int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(rng.Intn(vocab))
	}
	return ids
}

// replayRig is device + engine (hybrid replay unless the mode asks for
// the detailed twin) + seeded encoder.
func replayRig(seed int64, m mode) (*torch.Device, *timing.Engine, *functionalRunner, *torch.TransformerEncoder, error) {
	dev, err := torch.NewDevice(m.bugs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tcfg := timing.GTX1050()
	tcfg.ReplayEnabled = !m.detailed
	eng, err := timing.New(tcfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fr := m.install(dev.Ctx, eng)
	enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(subSeed(seed, seedWeights))), sampleModel())
	return dev, eng, fr, enc, err
}

func replayExtras(o *outcome) {
	o.extra["timing.replay_coverage"] = o.stats.ReplayCoverage()
}

func buildXF(seed int64, sc scale, m mode) (*instance, error) {
	const seqs, seqLen = 4, 12
	t0 := cpuSeconds()
	dev, eng, fr, enc, err := replayRig(seed, m)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedTokens)))
	batch := make([][]int32, seqs)
	for i := range batch {
		batch[i] = randomTokens(rng, seqLen, enc.Cfg.Vocab)
	}
	baseline := liveSet(dev.Ctx)
	inst := &instance{setupS: cpuSeconds() - t0}

	iters := sc.xfIters
	if m.iters > 0 {
		iters = min(iters, m.iters)
	}
	var first [][]float32
	var prefix uint64
	diverged := 0 // warm iterations whose outputs are not bit-equal to the first
	inst.run = func() error {
		for it := 0; it < iters; it++ {
			err := m.tr.iteration(it, func() error {
				outs, err := enc.ForwardBatch(batch, true)
				if err != nil {
					return err
				}
				if it == 0 {
					first = outs
				} else {
					for i := range outs {
						if maxAbsDiff(outs[i], first[i]) != 0 {
							diverged++
							break
						}
					}
				}
				return freeTransients(dev.Ctx, baseline)
			})
			if err != nil {
				return err
			}
			if it == min(twinIters, iters)-1 {
				prefix = eng.Cycle()
			}
		}
		return nil
	}
	inst.finish = func() (*outcome, error) {
		defer eng.Close()
		d := newDigester()
		o := engineOutcome(dev.Ctx, eng, d)
		for _, out := range first {
			d.f32(out)
		}
		o.digest = d.sum()
		o.prefixCycles, o.iters = prefix, iters
		if fr != nil {
			o.warpInstrs = fr.instrs
		}
		replayExtras(o)
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		for i, ids := range batch {
			want, _ := enc.ForwardCPU(ids)
			d := maxAbsDiff(first[i], want)
			c.expect(d <= 1e-3, "xf_hybrid seq %d: |simulated - ForwardCPU| = %g", i, d)
		}
		c.attempted += iters - 1
		c.failed += diverged
		if diverged > 0 {
			fmt.Fprintf(stderr, "CHECK FAILED: xf_hybrid: %d warm iterations not bit-equal to the first\n", diverged)
		}
	}
	return inst, nil
}

func buildTrain(seed int64, sc scale, m mode) (*instance, error) {
	const seqLen = 8
	const lr = 0.05 // core.DefaultTrainLR
	const lossTolerance = 5e-2
	t0 := cpuSeconds()
	dev, eng, fr, enc, err := replayRig(seed, m)
	if err != nil {
		return nil, err
	}
	tr, err := torch.NewTransformerTrainer(dev, enc, lr)
	if err != nil {
		return nil, err
	}
	// reserve-and-release arena: step 0 then makes the same first-fit
	// placements as steady-state steps, so replay hits from step 1
	arena, err := dev.Ctx.Malloc(16 << 20)
	if err != nil {
		return nil, err
	}
	if err := dev.Ctx.Free(arena); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedTokens)))
	steps := make([][]int32, sc.trainSteps)
	for i := range steps {
		steps[i] = randomTokens(rng, seqLen, enc.Cfg.Vocab)
	}
	baseline := liveSet(dev.Ctx)
	inst := &instance{setupS: cpuSeconds() - t0}
	// the oracle must copy the weights before training mutates them
	cpu := torch.NewCPUTrainState(enc)

	losses := make([]float32, 0, len(steps))
	inst.run = func() error {
		for i, ids := range steps {
			err := m.tr.iteration(i, func() error {
				loss, err := tr.TrainStep(ids)
				if err != nil {
					return err
				}
				losses = append(losses, loss)
				return freeTransients(dev.Ctx, baseline)
			})
			if err != nil {
				return fmt.Errorf("train step %d: %w", i, err)
			}
		}
		return nil
	}
	inst.finish = func() (*outcome, error) {
		defer eng.Close()
		d := newDigester()
		o := engineOutcome(dev.Ctx, eng, d)
		// Losses are checked against the oracle, not hashed: a replayed
		// step interprets float atomics in functional order, so the last
		// bits may differ from the detailed twin's.
		o.digest = d.sum()
		o.prefixCycles = o.cycles
		if fr != nil {
			o.warpInstrs = fr.instrs
		}
		replayExtras(o)
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		for i, ids := range steps {
			want := cpu.TrainStep(ids, lr)
			d := math.Abs(float64(losses[i] - want))
			c.expect(d <= lossTolerance, "train_hybrid step %d: device loss %g, CPUTrainState %g", i, losses[i], want)
		}
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// serve_diurnal

func buildServe(seed int64, sc scale, m mode) (*instance, error) {
	t0 := cpuSeconds()
	whole, err := serve.ParseTrace(bytes.NewReader(diurnalTrace))
	if err != nil {
		return nil, err
	}
	// keep the head of each regime, arrival times untouched, so the
	// low -> peak -> low shape survives at any scale
	var tr serve.Trace
	next := 0
	for regime, n := range diurnalRegimes {
		for i := 0; i < n; i, next = i+1, next+1 {
			if i < sc.serveRequests[regime] {
				r := whole.Requests[next]
				r.ID = len(tr.Requests)
				tr.Requests = append(tr.Requests, r)
			}
		}
	}
	weights := subSeed(seed, seedWeights)
	if weights == 0 {
		weights = 1 // serve.Config reads 0 as "default seed"
	}
	// set-up twin: what serve.Run constructs before its first launch
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return nil, err
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		return nil, err
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	if _, err := torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(weights)), sampleModel()); err != nil {
		return nil, err
	}
	eng.Close()
	inst := &instance{setupS: cpuSeconds() - t0}

	var res *serve.Result
	inst.run = func() error {
		res, err = serve.Run(serve.Config{ModelSeed: weights, KeepOutputs: true}, tr)
		return err
	}
	inst.finish = func() (*outcome, error) {
		d := newDigester()
		o := &outcome{
			cycles: res.TotalCycles, launches: len(res.Log), hwAgreePct: 100,
			stats: &res.Stats, clockMHz: timing.GTX1050().ClockMHz, extra: map[string]float64{},
		}
		o.warpInstrs = d.log(res.Log)
		d.u64(o.cycles, res.BusyCycles, uint64(res.Iterations))
		for _, q := range res.Requests {
			d.u64(uint64(q.ID), q.Admitted, q.FirstToken, q.Completed)
		}
		for _, toks := range res.Tokens {
			for _, t := range toks {
				d.u64(uint64(t))
			}
		}
		o.digest = d.sum()
		powerExtras(o)
		o.extra["serve.iterations"] = float64(res.Iterations)
		o.extra["serve.goodput_req_per_mcycle"] = res.Goodput()
		o.extra["serve.p99_latency_kcycles"] = stats.Percentile(res.Latencies(), 99) / 1e3
		o.extra["serve.ttft_p50_kcycles"] = stats.Percentile(res.TTFTs(), 50) / 1e3
		o.extra["serve.peak_batch"] = float64(res.PeakBatch)
		o.extra["serve.peak_kv_bytes"] = float64(res.PeakKVBytes)
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		retired := map[int]serve.RequestStats{}
		for _, q := range res.Requests {
			retired[q.ID] = q
		}
		for _, r := range tr.Requests {
			q, ok := retired[r.ID]
			c.expect(ok && q.Completed >= q.FirstToken && q.FirstToken > r.Arrival && len(res.Tokens[r.ID]) == r.Decode,
				"serve_diurnal request %d: retired=%v, %d of %d tokens", r.ID, ok, len(res.Tokens[r.ID]), r.Decode)
		}
	}
	return inst, nil
}

// ---------------------------------------------------------------------------
// dp_train_2dev

func buildDP(seed int64, sc scale, m mode) (*instance, error) {
	const devices, seqLen = 2, 8
	const lossTolerance = 5e-2
	workers := m.workers
	if workers == 0 {
		workers = hostWorkers()
	}
	t0 := cpuSeconds()
	// set-up twin: what multigpu.RunDPTrain constructs before step 0
	node, err := multigpu.NewNode(multigpu.Config{Devices: devices, Workers: workers})
	if err != nil {
		return nil, err
	}
	for _, dev := range node.Devs {
		enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(7)), sampleModel())
		if err != nil {
			return nil, err
		}
		if _, err := torch.NewTransformerTrainer(dev, enc, 0.05/devices); err != nil {
			return nil, err
		}
	}
	node.Close()
	inst := &instance{setupS: cpuSeconds() - t0}

	// The driver fixes weights and token streams itself; the seed has no
	// input to vary here.
	var res *multigpu.DPTrainResult
	inst.run = func() error {
		res, err = multigpu.RunDPTrain(multigpu.Config{Devices: devices, Workers: workers}, sc.dpSteps, seqLen)
		return err
	}
	inst.finish = func() (*outcome, error) {
		d := newDigester()
		o := &outcome{cycles: res.Cycles, hwAgreePct: 100, clockMHz: timing.GTX1050().ClockMHz, extra: map[string]float64{}}
		st := timing.NewStats(timing.GTX1050())
		for _, p := range res.PerDevice {
			o.warpInstrs += p.Instructions
			o.launches += p.Launches
			st.Instructions += p.Instructions
			st.L2Accesses += p.L2Accesses
			st.DRAMAccesses += p.DRAMAccesses
			st.FastForwardedCycles += p.FastForwardedCycles
			d.u64(p.Cycles, p.Instructions, p.L2Accesses, p.DRAMAccesses, p.FastForwardedCycles, uint64(p.Launches))
		}
		o.stats = st // the counters DeviceStats exposes; the rest stay 0
		d.u64(o.cycles, res.WeightsDigest, res.NVLink.Transfers, res.NVLink.BytesMoved, res.NVLink.OccupancyCycles, res.NVLink.StallCycles)
		for _, l := range res.Losses {
			d.f32(l)
		}
		o.digest = d.sum()
		o.extra["nvlink.busy_cycles"] = float64(res.NVLink.OccupancyCycles)
		o.extra["nvlink.stall_cycles"] = float64(res.NVLink.StallCycles)
		return o, nil
	}
	inst.verify = func(o *outcome, c *checks) {
		// RunDPTrain already failed the pass on a loss outside tolerance
		// or a weight byte differing between ranks; restate both as checks
		for s := range res.Losses {
			for r := range res.Losses[s] {
				d := math.Abs(float64(res.Losses[s][r] - res.CPULosses[s][r]))
				c.expect(d <= lossTolerance, "dp_train_2dev step %d rank %d: device loss %g, CPU mirror %g", s, r, res.Losses[s][r], res.CPULosses[s][r])
			}
		}
		c.expect(res.WeightsDigest != 0 && len(res.PerDevice) == devices, "dp_train_2dev: cross-rank weight identity")
	}
	return inst, nil
}
