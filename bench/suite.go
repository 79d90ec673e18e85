package main

// Suite mode (no -workload, or -reps N): the parent runs the workloads
// one at a time, every (workload, rep) in a fresh child process — a
// re-exec of this binary in single-run mode, so a rep never inherits
// another's heap — and summarises the reps as medians and quartiles.
// -out writes the summary; -compare reads two of them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

type suiteConfig struct {
	workload string // empty = all
	seed     int64
	seconds  float64
	reps     int
	smoke    bool
	out      string
	traceOut string
}

// suiteResult is the -out file.
type suiteResult struct {
	Env       suiteEnv        `json:"env"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds_per_rep"`
	Reps      int             `json:"reps"`
	Smoke     bool            `json:"smoke"`
	Workloads []suiteWorkload `json:"workloads"`
}

type suiteEnv struct {
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

type suiteWorkload struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Params    string                 `json:"params"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]e2eSummary  `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// e2eSummary is one end-to-end metric over the reps.
type e2eSummary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Samples []float64 `json:"samples"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// spread is the interquartile distance as a share of the median.
func (s e2eSummary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func currentEnv() suiteEnv {
	e := suiteEnv{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// child runs one single-workload run in a fresh process and parses the
// record it prints as its last line.
func child(exe string, cfg suiteConfig, name string, trace int, traceOut string) (*record, error) {
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", exe, strings.Join(args, " "), err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	rec := &record{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rec); err != nil {
		return nil, fmt.Errorf("%s %s: last line is not a record: %w", exe, strings.Join(args, " "), err)
	}
	return rec, nil
}

func runSuite(cfg suiteConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "gpubench:", err)
		return 1
	}
	res := suiteResult{Env: currentEnv(), Seed: cfg.seed, Seconds: cfg.seconds, Reps: cfg.reps, Smoke: cfg.smoke}
	sc := fullScale
	if cfg.smoke {
		sc = smokeScale
	}
	fmt.Printf("host_cpus=%d gomaxprocs=%d %s %s commit=%s seed=%d reps=%d seconds/rep=%g\n",
		res.Env.HostCPUs, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Platform, res.Env.Commit, cfg.seed, cfg.reps, cfg.seconds)
	bad := false
	for i := range workloads {
		w := &workloads[i]
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		sw := suiteWorkload{Name: w.name, Why: w.why, Params: w.params(sc), EndToEnd: map[string]e2eSummary{}}
		samples := map[string][]float64{}
		for rep := 0; rep < cfg.reps; rep++ {
			rec, err := child(exe, cfg, w.name, 0, "")
			if err != nil {
				fmt.Fprintln(stderr, "gpubench:", err)
				return 1
			}
			sw.Attempted += rec.Attempted
			sw.Failed += rec.Failed
			for name, m := range rec.Metrics {
				samples[name] = append(samples[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			s := e2eSummary{Unit: d.Unit, Better: d.Better, Bound: d.Bound, Samples: samples[d.Name], N: len(samples[d.Name]), Median: median(samples[d.Name])}
			s.Q1, s.Q3 = quartiles(samples[d.Name])
			sw.EndToEnd[d.Name] = s
		}
		traceOut := ""
		if cfg.traceOut != "" {
			traceOut = fmt.Sprintf("%s.%s.json", strings.TrimSuffix(cfg.traceOut, ".json"), w.name)
		}
		rec, err := child(exe, cfg, w.name, 1, traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "gpubench:", err)
			return 1
		}
		sw.Attempted += rec.Attempted
		sw.Failed += rec.Failed
		sw.PerLayer = rec.Metrics
		res.Workloads = append(res.Workloads, sw)
		printSuiteWorkload(os.Stdout, &sw)
		// on the default seed and scale, any movement of the modelled
		// cycles away from the pin is a failure of the suite
		drifted := cfg.seed == 1 && !cfg.smoke && sw.EndToEnd["sim_match_pct"].Median != 100
		if sw.Failed > 0 || drifted {
			bad = true
			fmt.Printf("%s: FAILED (%d of %d checks failed, sim_match_pct %g)\n", w.name, sw.Failed, sw.Attempted, sw.EndToEnd["sim_match_pct"].Median)
		}
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "gpubench:", err)
			return 1
		}
	}
	if bad {
		return 1
	}
	return 0
}

func printSuiteWorkload(w io.Writer, sw *suiteWorkload) {
	fmt.Fprintf(w, "\n== %s  (%s)\n   %s\n", sw.Name, sw.Params, sw.Why)
	fmt.Fprintf(w, "   fail_frac %d/%d\n", sw.Failed, sw.Attempted)
	fmt.Fprintf(w, "   %-22s %-10s %14s %14s %14s %3s %6s\n", "end to end", "unit", "median", "q1", "q3", "n", "bound")
	for _, d := range endToEnd {
		s := sw.EndToEnd[d.Name]
		fmt.Fprintf(w, "   %-22s %-10s %14.6g %14.6g %14.6g %3d %5.0f%%\n", d.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N, 100*s.Bound)
	}
	fmt.Fprintf(w, "   %-34s %-10s %14s\n", "per layer (one traced run)", "unit", "value")
	for _, d := range perLayer {
		m := sw.PerLayer[d.Name]
		fmt.Fprintf(w, "   %-34s %-10s %14.6g\n", d.Name, m.Unit, m.Value)
	}
}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &suiteResult{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints, per (workload, end-to-end metric), both medians,
// the ratio b/a and a verdict from the bound stored in a: REGRESS when b
// is worse than a by more than the bound, UNRESOLVED when either side's
// interquartile spread is wider than the bound (the difference cannot be
// told from noise), PASS otherwise. Exit status 1 on any REGRESS or any
// rise in the failed share of checks.
func compareFiles(pathA, pathB string, w io.Writer) int {
	var loaded [2]*suiteResult
	for i, path := range []string{pathA, pathB} {
		res, err := loadSuite(path)
		if err != nil {
			fmt.Fprintln(stderr, "gpubench:", err)
			return 1
		}
		loaded[i] = res
	}
	return compareSuites(loaded[0], loaded[1], w)
}

func compareSuites(a, b *suiteResult, w io.Writer) int {
	byName := map[string]*suiteWorkload{}
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	regress := false
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from b: REGRESS\n", wa.Name)
			regress = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				worse = -worse
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "PASS"
			switch {
			case spread > sa.Bound:
				verdict = "UNRESOLVED"
			case worse > sa.Bound:
				verdict = "REGRESS"
				regress = true
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9.4f %7.2f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, sb.Median/sa.Median, 100*spread, 100*sa.Bound, verdict)
		}
		fa, fb := failFrac(wa), failFrac(wb)
		verdict := "PASS"
		if fb > fa {
			verdict = "REGRESS"
			regress = true
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %9s %8s %7s  %s\n", wa.Name, "fail_frac", fa, fb, "", "", "", verdict)
	}
	if regress {
		return 1
	}
	return 0
}

func failFrac(sw *suiteWorkload) float64 {
	if sw.Attempted == 0 {
		return 1
	}
	return float64(sw.Failed) / float64(sw.Attempted)
}
