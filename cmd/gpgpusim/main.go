// Command gpgpusim is the simulator's one front door. Given a PTX file it
// runs a kernel from it in functional or performance mode — the
// equivalent of invoking GPGPU-Sim on a CUDA binary's extracted PTX;
// given -workload NAME it runs one of the built-in workloads, from the
// paper's experiments (mnist, convsample, camping) to the transformer
// inference, decode, serving and training scenarios.
//
// Every workload is an entry of one registry and owns its flag set: a
// flag the selected entry does not define is rejected by the flag
// package (exit 2, usage listing only that entry's flags), so no flag can
// be accepted and then ignored. An entry reports what it measured through
// an aerial.Report — text to stdout, and with -o DIR the same tables and
// time series as CSV files. -cpuprofile and -memprofile write pprof
// profiles of the run on every entry.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/aerial"
	"repro/internal/timing"
)

// workload is one registry entry.
type workload struct {
	name string // the -workload value; "" is the PTX-file mode
	desc string
	// define registers the entry's own flags on fs and returns its run
	// function, called once fs has parsed the command line. -workload,
	// -j, -o, -cpuprofile and -memprofile are the front door's and are on
	// every entry's flag set.
	define func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error
}

var workloads = []workload{
	ptxWorkload, transformerWorkload, decodeWorkload, serveWorkload, trainWorkload,
	memboundWorkload, mnistWorkload, convsampleWorkload, campingWorkload,
	debugWorkload, checkpointWorkload,
}

// usageError is a rejected flag value or combination: the run exits 2,
// like a flag the entry does not define.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// isSet reports whether the command line set the flag explicitly (most
// flags have non-zero defaults, so the value cannot tell).
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// workloadArg finds the -workload value without parsing anything else:
// the flag set that parses the rest depends on it.
func workloadArg(args []string) string {
	for i, a := range args {
		if a == "--" {
			break
		}
		if !strings.HasPrefix(a, "-") {
			continue
		}
		a = strings.TrimLeft(a, "-")
		if v, ok := strings.CutPrefix(a, "workload="); ok {
			return v
		}
		if a == "workload" && i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

// names lists the -workload values.
func names() string {
	var list []string
	for _, w := range workloads[1:] {
		list = append(list, w.name)
	}
	return strings.Join(list, ", ")
}

// flagSet builds the entry's flag set: the front door's five flags plus
// whatever the entry defines.
func (w *workload) flagSet(stderr io.Writer) (fs *flag.FlagSet, out *string, run func(*aerial.Report) error) {
	name := "gpgpusim [flags] file.ptx"
	if w.name != "" {
		name = "gpgpusim -workload " + w.name
	}
	fs = flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage of %s:\n", name)
		if w.desc != "" {
			fmt.Fprintf(stderr, "%s.\n", w.desc)
		}
		fs.PrintDefaults()
	}
	fs.String("workload", "", "built-in workload to run instead of a PTX file: "+names()+" (each has its own flags: -workload NAME -h)")
	workers := fs.Int("j", 1, "worker goroutines stepping SM cores in the detailed model (0 = all CPUs); results are identical for any value")
	out = fs.String("o", "", "directory to write every table and time series of the run into as CSV files (the AerialVision data)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to `FILE` (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to `FILE` after the run (go tool pprof)")
	entry := w.define(fs, workers)
	// -j is resolved here, once, so every entry and library it reaches
	// sees a positive count (the libraries read 0 as one worker).
	return fs, out, func(rep *aerial.Report) error {
		if *workers <= 0 {
			*workers = runtime.NumCPU()
		}
		return profiled(*cpuProfile, *memProfile, func() error { return entry(rep) })
	}
}

// profiled runs f, under a CPU profile written to cpuFile and followed by
// a heap profile written to memFile; an empty name writes no profile.
func profiled(cpuFile, memFile string, f func() error) error {
	stop := func() error { return nil }
	if cpuFile != "" {
		cpu, err := os.Create(cpuFile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return err
		}
		stop = func() error {
			pprof.StopCPUProfile()
			return cpu.Close()
		}
	}
	if err := errors.Join(f(), stop()); err != nil || memFile == "" {
		return err
	}
	mem, err := os.Create(memFile)
	if err != nil {
		return err
	}
	runtime.GC() // the heap profile reports the live heap as of the last collection
	return errors.Join(pprof.WriteHeapProfile(mem), mem.Close())
}

// run is main without the process: it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	name := workloadArg(args)
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		fmt.Fprintf(stderr, "unknown workload %q (available: %s)\n", name, names())
		return 2
	}
	w := &workloads[i]
	fs, out, runFn := w.flagSet(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	rep := &aerial.Report{W: stdout}
	var err error
	if parsed := fs.Lookup("workload").Value.String(); parsed != w.name {
		err = usagef("-workload names both %q and %q", w.name, parsed) // the pre-scan takes the first, flag the last
	} else if w.name != "" && fs.NArg() > 0 {
		err = usagef("unexpected argument %q: -workload %s takes flags only", fs.Arg(0), w.name)
	} else if err = runFn(rep); err == nil && *out != "" {
		err = rep.WriteCSV(*out)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		if errors.As(err, &usageError{}) {
			return 2
		}
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// replayFlags defines -replay and -replay-resample.
func replayFlags(fs *flag.FlagSet, effect string) (replay *bool, resample *int) {
	return fs.Bool("replay", false, "hybrid replay mode (memoized kernel timing): "+effect),
		resampleFlag(fs, "with -replay: ")
}

func resampleFlag(fs *flag.FlagSet, when string) *int {
	return fs.Int("replay-resample", 0, when+"re-simulate every Nth replay-cache hit in detail and report the drift (0 = never)")
}

// checkReplay rejects a -replay-resample that no replay cache would see.
func checkReplay(replay bool, resample int) error {
	if resample != 0 && !replay {
		return usagef("-replay-resample only applies with -replay")
	}
	return nil
}

// devicesFlag defines -devices.
func devicesFlag(fs *flag.FlagSet, effect string) *int {
	return fs.Int("devices", 1, "simulate N GPUs as one node over a modelled NVLink fabric ("+effect+"); -j host workers step the devices concurrently")
}

// atLeast rejects an integer flag below the smallest value its entry can
// honour: a count of zero or less would run some other shape than the one
// typed, or reach a make() or an allocator with it.
func atLeast(name string, v, lo int) error {
	if v < lo {
		return usagef("-%s must be >= %d, got %d", name, lo, v)
	}
	return nil
}

// printReplayCoverage prints the replay-cache coverage line the
// transformer, decode, train and serve workloads share.
func printReplayCoverage(rep *aerial.Report, st *timing.Stats) {
	rep.Printf("replay coverage %.1f%%: %d hits, %d misses, %d resamples, %d memo-applied\n",
		100*st.ReplayCoverage(), st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayMemoApplied)
}
