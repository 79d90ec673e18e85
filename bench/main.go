// Command gpubench is the repository's benchmark: six workloads over the
// GPU simulator, host time and modelled accuracy end to end, and a
// per-layer budget measured from outside the simulator's packages. See
// README.md in this directory; run it through run.sh from the root of
// the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

var stderr io.Writer = os.Stderr

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("gpubench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run; empty runs the whole suite")
		seed     = fs.Int64("seed", 1, "derives model weights, token ids and dataset noise")
		seconds  = fs.Float64("seconds", 0, "how long one run measures (default: 18 for one workload, 3 per suite rep)")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
		traceOut = fs.String("trace-out", "", "write the traced run's spans to this JSON file")
		smoke    = fs.Bool("smoke", false, "smallest iteration counts (bench_test.go scale; pins do not apply)")
		reps     = fs.Int("reps", 0, "suite: runs per workload, each a fresh child process (default 5)")
		out      = fs.String("out", "", "suite: write medians, quartiles and the per-layer block to this JSON file")
		compare  = fs.Bool("compare", false, "compare two -out files: gpubench -compare a.json b.json")
		repin    = fs.Bool("repin", false, "re-measure the pinned cycles and statistics hashes and rewrite -pinned")
		pinPath  = fs.String("pinned", "bench/pinned.json", "file -repin writes")
		manifest = fs.String("manifest", "", "write BENCHMARK.json to this path and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(hostWorkers())
	fail := func(err error) int {
		fmt.Fprintln(stderr, "gpubench:", err)
		return 1
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	switch {
	case *manifest != "":
		if err := writeManifest(*manifest); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	case *repin:
		if err := repinAll(*pinPath, *seed, sc); err != nil {
			return fail(err)
		}
		return 0
	case *name == "" || *reps > 0:
		if *reps == 0 {
			*reps = 5
		}
		if *seconds == 0 {
			*seconds = 3
		}
		return runSuite(suiteConfig{workload: *name, seed: *seed, seconds: *seconds, reps: *reps, smoke: *smoke, out: *out, traceOut: *traceOut})
	}
	w := findWorkload(*name)
	if w == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds == 0 {
		*seconds = runSeconds
	}
	rc := runConfig{w: w, seed: *seed, sc: sc, budget: time.Duration(*seconds * float64(time.Second)), pins: shippedPins(), traceOut: *traceOut}
	var rec *record
	var err error
	if *trace != 0 {
		rec, err = runTraced(rc)
	} else {
		rec, err = runEndToEnd(rc)
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	printRecord(os.Stderr, w, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// record is the one JSON object a run prints as its last line.
type record struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(c checks, defs []metricDef, values map[string]float64) *record {
	rec := &record{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rec
}

// printRecord is the human-readable form: every metric by name with its
// unit, in table order.
func printRecord(w io.Writer, wl *workload, rec *record) {
	fmt.Fprintf(w, "%s: %d checks, %d failed\n", wl.name, rec.Attempted, rec.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rec.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
}

// runConfig is one (workload, seed) run.
type runConfig struct {
	w        *workload
	seed     int64
	sc       scale
	budget   time.Duration
	pins     pinTable
	traceOut string
}

// passResult is one timed pass of a workload on a fresh set-up.
type passResult struct {
	setupS, wallS, cpuS float64
	inst                *instance
	o                   *outcome
	// traced passes only: the tracer and the Go runtime's counters on
	// either side of the timed region
	tr                  *tracer
	memBefore, memAfter runtime.MemStats
}

// onePass sets the workload up, times the region between the first
// launch and the last sync on both clocks (wall and process CPU), and
// gathers the counters after the clocks stop. A forced collection first
// keeps one pass's garbage out of the next pass's time.
func onePass(w *workload, seed int64, sc scale, m mode) (*passResult, error) {
	runtime.GC()
	inst, err := w.build(seed, sc, m)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := &passResult{setupS: inst.setupS, inst: inst, tr: m.tr}
	if m.tr != nil {
		runtime.ReadMemStats(&p.memBefore)
	}
	root := m.tr.begin("pass")
	c0, t0 := cpuSeconds(), time.Now()
	err = inst.run()
	p.wallS, p.cpuS = time.Since(t0).Seconds(), cpuSeconds()-c0
	m.tr.end(root)
	if err != nil {
		return nil, err
	}
	if m.tr != nil {
		runtime.ReadMemStats(&p.memAfter)
	}
	p.o, err = inst.finish()
	return p, err
}

// series is what a run keeps of every pass; only the last pass keeps its
// instance and counters, so earlier passes' device memory, logs and host
// buffers can be collected.
type series struct {
	setupS, wallS, cpuS []float64
	digests             []string
	last                *passResult
}

// pass runs one more pass in the given mode and appends it.
func (s *series) pass(rc runConfig, m mode) error {
	s.last = nil
	p, err := onePass(rc.w, rc.seed, rc.sc, m)
	if err != nil {
		return err
	}
	s.setupS = append(s.setupS, p.setupS)
	s.wallS = append(s.wallS, p.wallS)
	s.cpuS = append(s.cpuS, p.cpuS)
	s.digests = append(s.digests, p.o.digest)
	s.last = p
	return nil
}

// sameDigest checks the determinism contract across passes: identical
// inputs must give identical cycles, per-kernel counts and output bytes.
func sameDigest(digests []string, c *checks) {
	for i := 1; i < len(digests); i++ {
		c.expect(digests[i] == digests[0], "pass %d statistics hash %s differs from pass 0's %s", i, digests[i], digests[0])
	}
}

// runEndToEnd is a --trace 0 run: passes for the whole budget, a sample
// of the reference clock before the first and after every one, then the
// oracles and accuracy references on the last pass. Host times are
// medians over the passes, each at the machine speed the reference saw
// around it (refclock.go).
func runEndToEnd(rc runConfig) (*record, error) {
	ps := &series{}
	slow := []float64{hostSlowdown()}
	for t0 := time.Now(); ps.last == nil || time.Since(t0) < rc.budget; {
		if err := ps.pass(rc, mode{}); err != nil {
			return nil, err
		}
		slow = append(slow, hostSlowdown())
	}
	rss := peakRSSMB() // before the oracles and twins allocate
	var c checks
	sameDigest(ps.digests, &c)
	last := ps.last
	last.inst.verify(last.o, &c)
	replayAgree, err := replayAgreement(rc, last.o)
	if err != nil {
		return nil, err
	}
	host := median(normalise(ps.cpuS, slow))
	values := map[string]float64{
		"setup_s":           median(normalise(ps.setupS, slow)),
		"host_cpu_s":        host,
		"warp_kinstr_per_s": float64(last.o.warpInstrs) / 1e3 / host,
		"peak_rss_mb":       rss,
		"sim_match_pct":     rc.pins.match(rc.w, rc.sc, last.o),
		"replay_agree_pct":  replayAgree,
		"hw_agree_pct":      last.o.hwAgreePct,
	}
	fmt.Fprintf(stderr, "%s seed %d: %d passes, cpu_s %.4g (median %.4g), wall_s %.4g (median %.4g), reference slowdown %.3g (median %.4g); %d launches, %d modelled cycles, statistics hash %s\n",
		rc.w.name, rc.seed, len(ps.wallS), ps.cpuS, median(ps.cpuS), ps.wallS, median(ps.wallS), slow, median(slow), last.o.launches, last.o.cycles, last.o.digest)
	return newRecord(c, endToEnd, values), nil
}

// replayAgreement is 100 - |C_hybrid - C_detailed| / C_detailed x 100 over
// the iterations the all-detailed twin repeats; 100 by definition on
// workloads that run detailed already.
func replayAgreement(rc runConfig, o *outcome) (float64, error) {
	if !rc.w.hybrid {
		return 100, nil
	}
	twin, err := onePass(rc.w, rc.seed, rc.sc, mode{detailed: true, iters: twinIters})
	if err != nil {
		return 0, fmt.Errorf("detailed twin: %w", err)
	}
	d := float64(twin.o.cycles)
	return 100 - 100*math.Abs(float64(o.prefixCycles)-d)/d, nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// cpuSeconds is the CPU time the process has used so far, user + system
// over all its threads — the benchmark's host clock. For the workers=1
// workloads it reads what an idle machine's wall clock would (plus the
// collector's background work on the second core); for dp_train_2dev it
// counts both workers, so parallel efficiency shows in the per-layer
// multigpu.parallel_speedup, not here. Linux guests with paravirtual time
// accounting leave hypervisor-stolen time out of it.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// ---------------------------------------------------------------------------
// order statistics

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// PR driver computes spreads with. Fewer than two samples have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// tailPercentile returns the highest of p99.9/p99/p95/p90 that still has
// at least ten samples beyond it, and which one it was; with fewer than
// 100 samples no percentile qualifies and the median is returned.
func tailPercentile(v []float64) (float64, string) {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(len(v))*(100-p)/100 >= 10 {
			return stats.Percentile(v, p), fmt.Sprintf("p%g", p)
		}
	}
	return median(v), "median"
}
