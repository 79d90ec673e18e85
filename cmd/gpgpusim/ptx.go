package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/aerial"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/timing"
)

// ptxWorkload is the PTX-file mode: launch one kernel of a standalone
// PTX file, functionally or on the GTX 1050 model, once or once per
// concurrent stream.
var ptxWorkload = workload{
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		kernel := fs.String("kernel", "", "entry name to launch (default: first kernel of the file)")
		gridDim, blockDim := exec.Dim3{X: 1, Y: 1, Z: 1}, exec.Dim3{X: 32, Y: 1, Z: 1}
		fs.Func("grid", "grid dimensions x[,y[,z]] (default 1,1,1)", func(s string) (err error) { gridDim, err = parseDim(s); return })
		fs.Func("block", "block dimensions x[,y[,z]] (default 32,1,1)", func(s string) (err error) { blockDim, err = parseDim(s); return })
		perf := fs.Bool("perf", false, "use the Performance simulation mode (GTX 1050)")
		streams := fs.Int("streams", 1, "with -perf: launch the kernel once per stream on N concurrent CUDA streams (each with its own buffers) and report the overlap against a serialized run")
		args := fs.String("args", "", "comma-separated kernel arguments: bufN (device buffer of N floats), iV (u32), fV (f32)")
		dump := fs.Int("dump", 8, "floats to dump from each buffer argument after the run")
		return func(rep *aerial.Report) error {
			if fs.NArg() != 1 {
				return usagef("usage: gpgpusim [flags] file.ptx  (or -workload NAME; see -h)")
			}
			if err := atLeast("streams", *streams, 1); err != nil {
				return err
			}
			if *streams > 1 && !*perf {
				return usagef("-streams needs -perf (concurrent streams run in the detailed model)")
			}
			if isSet(fs, "j") && !*perf {
				return usagef("-j needs -perf (the functional mode has no SM cores to step)")
			}
			src, err := os.ReadFile(fs.Arg(0))
			if err != nil {
				return err
			}

			// launch runs the kernel once per lane on a fresh context —
			// and, with -perf, a fresh engine, which the CLI builds by
			// hand because the file is the whole program and no kernel
			// library is wanted: one stream per lane when concurrent,
			// back-to-back on the default stream otherwise. It returns
			// the engine cycles the lanes took and the first lane's
			// buffers. All buffer uploads happen before the first launch
			// (synchronous copies are device-synchronizing and would
			// serialise the streams).
			launch := func(lanes int, concurrent bool) (uint64, *cudart.Context, []buffer, error) {
				ctx := cudart.NewContext(exec.BugSet{})
				cycle := func() uint64 { return 0 }
				if *perf {
					eng, err := timing.New(timing.GTX1050(), timing.WithWorkers(*workers))
					if err != nil {
						return 0, nil, nil, err
					}
					ctx.SetRunner(timing.Runner{E: eng})
					cycle = eng.Cycle
				}
				mod, err := ctx.RegisterModule(string(src))
				if err != nil {
					return 0, nil, nil, fmt.Errorf("parse: %w", err)
				}
				name := *kernel
				if names := mod.KernelNames(); name == "" && len(names) > 0 {
					name = names[0]
				}
				params := make([]*cudart.Params, lanes)
				var first []buffer
				for i := range params {
					var bufs []buffer
					if params[i], bufs, err = buildParams(ctx, *args); err != nil {
						return 0, nil, nil, err
					}
					if i == 0 {
						first = bufs
					}
				}
				start := cycle()
				for _, p := range params {
					s := cudart.DefaultStream
					if concurrent {
						s = ctx.StreamCreate()
					}
					if _, err := ctx.LaunchOnStream(s, name, gridDim, blockDim, p, 0); err != nil {
						return 0, nil, nil, fmt.Errorf("launch: %w", err)
					}
				}
				err = ctx.DeviceSynchronize()
				return cycle() - start, ctx, first, err
			}

			// One lane is the plain single launch. Several lanes run
			// twice: overlapped, and — as the baseline — really
			// serialized on a fresh engine, not as the sum of the
			// concurrent per-kernel cycles (those span the overlapped
			// window and would inflate the win).
			cycles, ctx, bufs, err := launch(*streams, *streams > 1)
			if err != nil {
				return err
			}
			log := ctx.KernelStatsLog()
			if *streams > 1 {
				serial, _, _, err := launch(*streams, false)
				if err != nil {
					return err
				}
				var instrs uint64
				for _, k := range log {
					instrs += k.WarpInstrs
					rep.Printf("kernel %s (launch %d): %d cycles, %d warp instructions\n",
						k.Name, k.LaunchID, k.Cycles, k.WarpInstrs)
				}
				rep.Printf("%d streams: %d total cycles concurrent vs %d serialized (overlap speedup %.2fx), IPC %.2f\n",
					*streams, cycles, serial, float64(serial)/float64(cycles), float64(instrs)/float64(cycles))
			} else if st := log[0]; *perf {
				rep.Printf("kernel %s: performance mode, %d warp instructions, %d cycles, IPC %.2f\n",
					st.Name, st.WarpInstrs, st.Cycles, float64(st.WarpInstrs)/float64(st.Cycles))
			} else {
				rep.Printf("kernel %s: functional mode, %d warp instructions\n", st.Name, st.WarpInstrs)
			}
			rep.Table(aerial.KernelMemTable("", log))
			for i, b := range bufs {
				n := min(b.floats, *dump)
				parts := make([]string, n)
				for j, v := range ctx.MemcpyF32DtoH(b.addr, n) {
					parts[j] = stats.Fmt(float64(v))
				}
				rep.Printf("buf%d[0:%d] = [%s]\n", i, n, strings.Join(parts, " "))
			}
			return nil
		}
	},
}

// buffer is one bufN kernel argument on the device.
type buffer struct {
	addr   uint64
	floats int
}

// buildParams marshals the -args spec into a parameter buffer, allocating
// and initialising a fresh device buffer for every bufN argument (so each
// concurrent stream gets its own working set).
func buildParams(ctx *cudart.Context, args string) (*cudart.Params, []buffer, error) {
	p := cudart.NewParams()
	var bufs []buffer
	if args == "" {
		return p, nil, nil
	}
	for _, a := range strings.Split(args, ",") {
		a = strings.TrimSpace(a)
		err := strconv.ErrSyntax
		switch {
		case strings.HasPrefix(a, "buf"):
			var n int
			if n, err = strconv.Atoi(a[3:]); err != nil || n < 0 {
				return nil, nil, usagef("-args: bad buffer arg %q", a)
			}
			addr, err := ctx.Malloc(uint64(4 * n))
			if err != nil {
				return nil, nil, err
			}
			init := make([]float32, n)
			for i := range init {
				init[i] = float32(i)
			}
			ctx.MemcpyF32HtoD(addr, init)
			p.Ptr(addr)
			bufs = append(bufs, buffer{addr, n})
			continue
		case strings.HasPrefix(a, "i"):
			var v uint64
			v, err = strconv.ParseUint(a[1:], 0, 32)
			p.U32(uint32(v))
		case strings.HasPrefix(a, "f"):
			var v float64
			v, err = strconv.ParseFloat(a[1:], 32)
			p.F32(float32(v))
		}
		if err != nil {
			return nil, nil, usagef("-args: bad arg %q", a)
		}
	}
	return p, bufs, nil
}

// parseDim parses a dim3 written as x[,y[,z]]; components left out are
// 1, and every component must be a positive integer. It is the value
// parser of -grid and -block, so the flag package rejects a malformed one.
func parseDim(s string) (exec.Dim3, error) {
	parts := strings.Split(s, ",")
	if len(parts) > 3 {
		return exec.Dim3{}, fmt.Errorf("%q has more than three components", s)
	}
	dims := [3]int{1, 1, 1}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return exec.Dim3{}, fmt.Errorf("component %q of %q is not a positive integer", p, s)
		}
		dims[i] = v
	}
	return exec.Dim3{X: dims[0], Y: dims[1], Z: dims[2]}, nil
}
