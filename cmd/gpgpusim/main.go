// Command gpgpusim runs a standalone PTX file on the simulator, in
// functional or performance mode — the equivalent of invoking GPGPU-Sim
// on a CUDA binary's extracted PTX.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/aerial"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/timing"
)

func main() {
	kernel := flag.String("kernel", "", "entry name to launch (default: first kernel of the file)")
	grid := flag.String("grid", "1,1,1", "grid dimensions x,y,z")
	block := flag.String("block", "32,1,1", "block dimensions x,y,z")
	perf := flag.Bool("perf", false, "use the Performance simulation mode (GTX 1050)")
	workers := flag.Int("j", 1, "worker goroutines stepping SM cores in -perf mode (0 = all CPUs); results are identical for any value")
	streams := flag.Int("streams", 1, "in -perf mode, launch the kernel once per stream on N concurrent CUDA streams (each with its own buffers) and report the overlap")
	args := flag.String("args", "", "comma-separated kernel arguments: bufN (device buffer of N floats), iV (u32), fV (f32)")
	dump := flag.Int("dump", 8, "floats to dump from each buffer argument after the run")
	workload := flag.String("workload", "", "built-in workload instead of a PTX file: "+workloadUsage())
	replay := flag.Bool("replay", false, "with -workload transformer: repeat the batch in hybrid replay mode (memoized kernel timing) and report cache coverage")
	resample := flag.Int("replay-resample", 0, "with -replay: re-simulate every Nth cache hit in detail and report the drift (0 = never)")
	rate := flag.Float64("rate", 40, "with -workload serve: offered Poisson arrival rate in requests per million cycles (ignored with -trace)")
	traceFile := flag.String("trace", "", "with -workload serve: replayable arrival-trace file to serve instead of a generated Poisson stream")
	requests := flag.Int("requests", 24, "with -workload serve: requests in the generated Poisson stream (ignored with -trace)")
	serveSeed := flag.Int64("serve-seed", 1, "with -workload serve: seed of the generated Poisson stream (ignored with -trace)")
	prompt := flag.Int("prompt", 4, "with -workload decode (or serve -decode): prompt tokens each sequence prefills")
	gen := flag.Int("gen", 8, "with -workload decode (or serve -decode): tokens each sequence greedy-decodes")
	serveDecode := flag.Bool("decode", false, "with -workload serve: generate a decode trace (-prompt prefill, -gen decode tokens per request) instead of encoder requests; KV-cache bytes gate admission")
	steps := flag.Int("steps", 4, "with -workload train: training steps to run")
	devices := flag.Int("devices", 1, "with -workload train or transformer: simulate N GPUs as one node (data-parallel training / tensor-parallel inference over a modelled NVLink fabric); -j host workers step the devices concurrently")
	flag.Parse()

	// Most workload flags have non-zero defaults, so a value comparison
	// cannot tell "left at default" from "explicitly set": collect the
	// flags the user actually passed and reject combinations that would
	// otherwise be silently ignored.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := validateFlagCombos(*workload, *serveDecode, *devices, setFlags); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *workload != "" {
		opts := workloadOpts{
			workers: *workers, streams: *streams, replay: *replay, resampleEvery: *resample,
			rate: *rate, traceFile: *traceFile, requests: *requests, serveSeed: *serveSeed,
			prompt: *prompt, gen: *gen, serveDecode: *serveDecode, steps: *steps,
			devices: *devices,
		}
		if err := runWorkloadFlag(*workload, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *replay || *resample != 0 {
		fmt.Fprintln(os.Stderr, "-replay/-replay-resample need -workload transformer (replay pays off on repeated launches, not a single PTX run)")
		os.Exit(2)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gpgpusim [flags] file.ptx  (or -workload transformer)")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse:", err)
		os.Exit(1)
	}
	name := *kernel
	if name == "" {
		names := mod.KernelNames()
		if len(names) == 0 {
			fmt.Fprintln(os.Stderr, "no kernels in module")
			os.Exit(1)
		}
		name = names[0]
	}

	if *streams > 1 && !*perf {
		fmt.Fprintln(os.Stderr, "-streams needs -perf (concurrent streams run in the detailed model)")
		os.Exit(2)
	}

	if *streams > 1 {
		// Concurrent-stream mode: one launch per stream, each with its
		// own buffer set, overlapping in the detailed timing model. The
		// baseline is a real serialized run of the same workload on a
		// fresh engine, not the sum of concurrent per-kernel cycles
		// (those span the overlapped window and would inflate the win).
		conc, log, cctx, bufs, bufLens, err := runStreamWorkload(string(src), name, *grid, *block, *args, *workers, *streams, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		serial, _, _, _, _, err := runStreamWorkload(string(src), name, *grid, *block, *args, *workers, *streams, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var instrs uint64
		for _, k := range log {
			instrs += k.WarpInstrs
			fmt.Printf("kernel %s (launch %d): %d cycles, %d warp instructions\n",
				k.Name, k.LaunchID, k.Cycles, k.WarpInstrs)
		}
		fmt.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx), IPC %.2f\n",
			*streams, conc, serial, float64(serial)/float64(conc), float64(instrs)/float64(conc))
		dumpBufs(cctx, bufs, bufLens, *dump)
		return
	}

	if *perf {
		eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(*workers))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ctx.SetRunner(timing.Runner{E: eng})
	}

	p, bufs, bufLens := buildParams(ctx, *args)
	st, err := ctx.Launch(name, parseDim(*grid), parseDim(*block), p, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(1)
	}
	mode := "functional"
	if *perf {
		mode = "performance"
	}
	fmt.Printf("kernel %s: %s mode, %d warp instructions", name, mode, st.WarpInstrs)
	if *perf {
		fmt.Printf(", %d cycles, IPC %.2f", st.Cycles,
			float64(st.WarpInstrs)/float64(st.Cycles))
	}
	fmt.Println()
	dumpBufs(ctx, bufs, bufLens, *dump)
}

// workloadOpts carries the flags a -workload built-in may consume.
type workloadOpts struct {
	workers, streams int
	replay           bool
	resampleEvery    int
	rate             float64
	traceFile        string
	requests         int
	serveSeed        int64
	prompt, gen      int
	serveDecode      bool
	steps            int
	devices          int
}

// validateFlagCombos rejects flag combinations a workload would silently
// ignore: each error names the offending flag and the run that would
// actually honour it, and the CLI exits 2 (usage) instead of producing
// misleading output.
func validateFlagCombos(workload string, serveDecode bool, devices int, set map[string]bool) error {
	if set["devices"] {
		if devices < 1 {
			return fmt.Errorf("-devices must be >= 1, got %d (usage: `gpgpusim -devices 2 -workload train`)", devices)
		}
		if workload != "train" && workload != "transformer" {
			return fmt.Errorf("-devices only applies to -workload train or transformer; multi-GPU serve/decode is not supported yet (usage: `gpgpusim -devices 2 -workload train`)")
		}
		if set["streams"] {
			return fmt.Errorf("-streams only applies to single-device runs: tensor-parallel inference spreads each sequence across all devices instead of across streams (usage: `gpgpusim -devices 2 -workload transformer`)")
		}
		if set["replay"] && workload == "transformer" {
			return fmt.Errorf("-replay with -devices only applies to -workload train (the tensor-parallel inference phases are launched once per sequence — nothing repeats; usage: `gpgpusim -devices 2 -workload train -replay`)")
		}
	}
	if set["decode"] && workload != "serve" {
		return fmt.Errorf("-decode only applies to -workload serve (usage: `gpgpusim -workload serve -decode`; for the standalone decode batch use `-workload decode`)")
	}
	if (set["prompt"] || set["gen"]) && workload != "decode" && !(workload == "serve" && serveDecode) {
		return fmt.Errorf("-prompt/-gen only apply to -workload decode or -workload serve -decode; they would be silently ignored here (usage: `gpgpusim -workload decode -prompt 4 -gen 8`)")
	}
	if set["rate"] && set["trace"] {
		return fmt.Errorf("-rate and -trace are mutually exclusive: -trace replays a pinned arrival trace, so the Poisson -rate would be silently ignored (drop one of them)")
	}
	if set["steps"] && workload != "train" {
		return fmt.Errorf("-steps only applies to -workload train; it would be silently ignored here (usage: `gpgpusim -workload train -steps 4`)")
	}
	// a bare PTX run rejects both replay flags in main; decode always
	// runs its hybrid pass
	if set["replay-resample"] && !set["replay"] && workload != "" && workload != "decode" {
		return fmt.Errorf("-replay-resample only applies with -replay; it would be silently ignored here (usage: `gpgpusim -workload transformer -replay -replay-resample 2`)")
	}
	return nil
}

// workloads is the single registry of -workload built-ins: the flag's
// usage string and the unknown-workload error both derive from it, so a
// new workload added here shows up in both automatically.
var workloads = []struct {
	name string
	desc string
	run  func(workloadOpts) error
}{
	{
		name: "transformer",
		desc: "runs the encoder inference batch in the detailed model (-streams sequences, -j workers); add -replay to repeat the batch in hybrid replay mode, or -devices N for tensor-parallel inference across N simulated GPUs",
		run: func(o workloadOpts) error {
			if o.devices > 1 {
				return runMultiTransformerWorkload(o)
			}
			if o.replay {
				return runTransformerReplayWorkload(o)
			}
			return runTransformerWorkload(o.workers, o.streams)
		},
	},
	{
		name: "serve",
		desc: "serves an open-loop inference request stream (-rate or -trace) with continuous batching and reports p50/p99/p99.9 latency, TTFT and goodput; -replay retires repeated chains from the replay cache",
		run:  runServeWorkload,
	},
	{
		name: "decode",
		desc: "runs the KV-cached greedy-decode batch (-streams sequences, -prompt prefill + -gen generated tokens) in the detailed model, then repeats it in hybrid replay mode and reports tokens/sec and replay coverage",
		run:  runDecodeWorkload,
	},
	{
		name: "train",
		desc: "runs -steps transformer training steps (forward, loss, backward, SGD) in the detailed model, each step's loss checked against the CPU mirror; -replay retires steady-state steps from the replay cache, -devices N trains data-parallel across N simulated GPUs",
		run: func(o workloadOpts) error {
			if o.devices > 1 {
				return runMultiTrainWorkload(o)
			}
			return runTrainWorkload(o)
		},
	},
	{
		name: "membound",
		desc: "sweeps a streaming kernel across occupancies to show load-dependent memory latency",
		run: func(o workloadOpts) error {
			if o.replay {
				return fmt.Errorf("-replay only applies to the transformer workload (membound launches each configuration once — nothing repeats)")
			}
			return runMemBoundWorkload(o.workers)
		},
	},
}

func workloadUsage() string {
	var b strings.Builder
	for i, w := range workloads {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "'%s' %s", w.name, w.desc)
	}
	return b.String()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkloadFlag dispatches the -workload built-ins.
func runWorkloadFlag(name string, o workloadOpts) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run(o)
		}
	}
	return fmt.Errorf("unknown workload %q (available: %s)", name, workloadNames())
}

// runMemBoundWorkload sweeps the streaming strided_saxpy kernel across
// occupancy levels on the GTX 1050 model, demonstrating the
// bandwidth-aware memory hierarchy: average segment latency rises with
// load instead of staying at the unloaded L2/DRAM latency.
func runMemBoundWorkload(workers int) error {
	ctas := []int{1, 8, 40, 160}
	res, err := core.RunMemBound(core.GTX1050, workers, 64, 1, ctas)
	if err != nil {
		return err
	}
	fmt.Printf("membound workload: streaming strided_saxpy, %d threads/CTA, stride %d\n",
		res.Threads, res.Stride)
	fmt.Printf("%-6s %10s %14s %14s %12s\n", "ctas", "cycles", "avg_seg_lat", "ingress_stall", "dram_rowhit")
	var launches []cudart.KernelStats
	for _, p := range res.Points {
		fmt.Printf("%-6d %10d %14.1f %14d %12d\n",
			p.CTAs, p.Cycles, p.AvgSegLatency, p.IngressStalls, p.Kernel.DRAMRowHits)
		k := p.Kernel
		k.Name = fmt.Sprintf("saxpy_ctas%d", p.CTAs)
		launches = append(launches, k)
	}
	lo, hi := res.Points[0], res.Points[len(res.Points)-1]
	fmt.Printf("load-dependent latency: %.1f cycles at %d CTAs -> %.1f cycles at %d CTAs (%.2fx)\n",
		lo.AvgSegLatency, lo.CTAs, hi.AvgSegLatency, hi.CTAs, hi.AvgSegLatency/lo.AvgSegLatency)
	aerial.KernelMemTable("per-kernel memory counters", launches).WriteText(os.Stdout)
	return nil
}

// runTransformerWorkload runs the transformer-encoder inference batch in
// the detailed model: `streams` sequences, each forward pass on its own
// CUDA stream, verified against the ForwardCPU oracle and compared with
// a serialized run of the same batch.
func runTransformerWorkload(workers, streams int) error {
	res, err := core.RunTransformerSample(workers, streams, 12)
	if err != nil {
		return err
	}
	fmt.Printf("transformer workload: %d layers, %d heads, d_model %d — %d sequences × %d tokens, %d kernel launches\n",
		res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Seqs, res.SeqLen, res.Launches())
	fmt.Printf("max |sim - cpu| = %.2g\n", res.MaxAbsDiff)
	fmt.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx), IPC %.2f\n",
		res.Seqs, res.TotalCycles, res.SerializedCycles, res.Speedup(), res.IPC())
	return nil
}

// runTransformerReplayWorkload repeats the transformer inference batch
// in hybrid replay mode: the first iteration simulates in detail and
// warms the replay cache, later iterations retire from it. The coverage
// line is what smoke_test.go pins.
func runTransformerReplayWorkload(o workloadOpts) error {
	const iters = 4
	res, err := core.RunTransformerReplay(o.workers, o.streams, 12, iters, o.resampleEvery, true, true)
	if err != nil {
		return err
	}
	fmt.Printf("transformer replay workload: %d layers, %d heads, d_model %d — %d sequences × %d tokens, %d iterations, %d kernel launches\n",
		res.Config.Layers, res.Config.Heads, res.Config.DModel, res.Seqs, res.SeqLen, res.Iters, res.Launches())
	fmt.Printf("max |sim - cpu| = %.2g (first iteration; later iterations bit-equal by construction)\n", res.MaxAbsDiff)
	printReplayCoverage(&res.Stats)
	fmt.Printf("cycles: %d first iteration (detailed), %d total; %d replayed vs %d detailed kernel cycles",
		res.FirstIterCycles, res.TotalCycles, res.Stats.ReplayedCycles, res.Stats.DetailedKernelCycles)
	if res.Stats.ReplayResamples > 0 {
		fmt.Printf("; resample drift %d cycles", res.Stats.ReplayDriftCycles)
	}
	fmt.Println()
	aerial.KernelReplayTable("per-kernel replay coverage", res.PerKernel).WriteText(os.Stdout)
	return nil
}

// printReplayCoverage prints the replay-cache coverage line the
// transformer, decode and train workloads share.
func printReplayCoverage(st *timing.Stats) {
	fmt.Printf("replay coverage %.1f%%: %d hits, %d misses, %d resamples, %d memo-applied\n",
		100*st.ReplayCoverage(), st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayMemoApplied)
}

// runStreamWorkload runs the kernel once per lane on a fresh context and
// engine — one stream per lane when concurrent, back-to-back on the
// default stream otherwise — and returns the total engine cycles, the
// per-kernel stats log, and the first lane's buffers for dumping. All
// buffer uploads happen before the first launch (synchronous copies are
// device-synchronizing and would serialise the streams).
func runStreamWorkload(src, name, grid, block, args string, workers, lanes int, concurrent bool) (uint64, []cudart.KernelStats, *cudart.Context, []uint64, []int, error) {
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(workers))
	if err != nil {
		return 0, nil, nil, nil, nil, err
	}
	ctx.SetRunner(timing.Runner{E: eng})
	if _, err := ctx.RegisterModule(src); err != nil {
		return 0, nil, nil, nil, nil, err
	}
	var allParams []*cudart.Params
	var firstBufs []uint64
	var bufLens []int
	for i := 0; i < lanes; i++ {
		p, bufs, lens := buildParams(ctx, args)
		allParams = append(allParams, p)
		if i == 0 {
			firstBufs, bufLens = bufs, lens
		}
	}
	start := eng.Cycle()
	for i := 0; i < lanes; i++ {
		s := cudart.DefaultStream
		if concurrent {
			s = ctx.StreamCreate()
		}
		if _, err := ctx.LaunchOnStream(s, name, parseDim(grid), parseDim(block), allParams[i], 0); err != nil {
			return 0, nil, nil, nil, nil, err
		}
	}
	if err := ctx.DeviceSynchronize(); err != nil {
		return 0, nil, nil, nil, nil, err
	}
	return eng.Cycle() - start, ctx.KernelStatsLog(), ctx, firstBufs, bufLens, nil
}

// buildParams marshals the -args spec into a parameter buffer, allocating
// and initialising a fresh device buffer for every bufN argument (so each
// concurrent stream gets its own working set).
func buildParams(ctx *cudart.Context, args string) (*cudart.Params, []uint64, []int) {
	p := cudart.NewParams()
	var bufs []uint64
	var bufLens []int
	if args == "" {
		return p, bufs, bufLens
	}
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		switch {
		case strings.HasPrefix(a, "buf"):
			n, err := strconv.Atoi(a[3:])
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad buffer arg %q\n", a)
				os.Exit(2)
			}
			addr, err := ctx.Malloc(uint64(4 * n))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			init := make([]float32, n)
			for i := range init {
				init[i] = float32(i)
			}
			ctx.MemcpyF32HtoD(addr, init)
			p.Ptr(addr)
			bufs = append(bufs, addr)
			bufLens = append(bufLens, n)
		case strings.HasPrefix(a, "i"):
			v, err := strconv.ParseUint(a[1:], 0, 32)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad int arg %q\n", a)
				os.Exit(2)
			}
			p.U32(uint32(v))
		case strings.HasPrefix(a, "f"):
			v, err := strconv.ParseFloat(a[1:], 32)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad float arg %q\n", a)
				os.Exit(2)
			}
			p.F32(float32(v))
		default:
			fmt.Fprintf(os.Stderr, "bad arg %q\n", a)
			os.Exit(2)
		}
	}
	return p, bufs, bufLens
}

// dumpBufs prints the first `dump` floats of each buffer argument.
func dumpBufs(ctx *cudart.Context, bufs []uint64, bufLens []int, dump int) {
	for i, addr := range bufs {
		n := bufLens[i]
		if n > dump {
			n = dump
		}
		vals := ctx.MemcpyF32DtoH(addr, n)
		parts := make([]string, n)
		for j, v := range vals {
			parts[j] = stats.Fmt(float64(v))
		}
		fmt.Printf("buf%d[0:%d] = [%s]\n", i, n, strings.Join(parts, " "))
	}
}

func parseDim(s string) exec.Dim3 {
	parts := strings.Split(s, ",")
	d := exec.Dim3{X: 1, Y: 1, Z: 1}
	if len(parts) > 0 {
		d.X, _ = strconv.Atoi(strings.TrimSpace(parts[0]))
	}
	if len(parts) > 1 {
		d.Y, _ = strconv.Atoi(strings.TrimSpace(parts[1]))
	}
	if len(parts) > 2 {
		d.Z, _ = strconv.Atoi(strings.TrimSpace(parts[2]))
	}
	return d
}
