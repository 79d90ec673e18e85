package main

// Smoke-scale checks of the benchmark itself (run with `go test` inside
// bench/; about 15 s): the vocabulary is well formed and documented,
// tracing cannot perturb the model, the functional twin interprets the
// same instructions, and a wrong pin or a wrong result is reported, not
// swallowed.

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/ptx"
)

func TestMain(m *testing.M) {
	stderr = io.Discard // CHECK FAILED lines are expected below
	os.Exit(m.Run())
}

func TestVocabulary(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads / %d end-to-end / %d per-layer metrics exceed the limits 8 / 16 / 128", len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("%q is not documented in README.md", n)
		}
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
			if d.Bound < 0 || d.Bound > 0.25 {
				t.Errorf("%s: bound %g outside [0, 0.25]", d.Name, d.Bound)
			}
			hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s")
	}
}

// The root BENCHMARK.json and the shipped pins are written by the tool;
// both must agree with the tables they were written from.
func TestManifestAndPinsCurrent(t *testing.T) {
	tmp := t.TempDir() + "/BENCHMARK.json"
	if err := writeManifest(tmp); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(tmp)
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("../BENCHMARK.json is stale: rewrite it with `bash bench/run.sh -manifest BENCHMARK.json`")
	}
	pins := shippedPins()
	for i := range workloads {
		w := &workloads[i]
		if p, ok := pins[w.name]; !ok || p.Params != w.params(fullScale) || p.Cycles == 0 {
			t.Errorf("%s: pinned.json has no pin for %q (re-run -repin)", w.name, w.params(fullScale))
		}
	}
}

// The workload inputs shipped under bench/ must parse, and the trace
// must still be the repository's checked-in diurnal trace.
func TestInputs(t *testing.T) {
	for name, src := range map[string]string{"strided_saxpy.ptx": stridedSaxpyPTX, "probes.ptx": probesPTX} {
		if _, err := ptx.Parse(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	orig, err := os.ReadFile("../internal/serve/testdata/diurnal.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, diurnalTrace) {
		t.Error("traces/diurnal.trace differs from internal/serve/testdata/diurnal.trace")
	}
}

// Tracing must not perturb the model: spanRunner on and off give the
// same modelled cycles and the same statistics hash.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"xf_hybrid", "membound_stream"} {
		w := findWorkload(name)
		off, err := onePass(w, 1, smokeScale, mode{})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(name)
		on, err := onePass(w, 1, smokeScale, mode{tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		if on.o.cycles != off.o.cycles || on.o.digest != off.o.digest {
			t.Errorf("%s: traced run has %d cycles, hash %s; untraced %d, %s", name, on.o.cycles, on.o.digest, off.o.cycles, off.o.digest)
		}
		self := tr.selfTimes()
		if self[spanDrainAll]+self[spanRunKernel] <= 0 || self["pass"] < 0 {
			t.Errorf("%s: traced run recorded no engine time: %v", name, self)
		}
	}
}

// The traced run splits wall clock into host code, timing model and
// interpreter, all positive, and the functional twin interprets exactly
// the instructions the detailed run committed (a hostBudget check).
func TestHostBudget(t *testing.T) {
	w := findWorkload("membound_stream")
	rc := runConfig{w: w, seed: 1, sc: smokeScale}
	p, err := onePass(w, 1, smokeScale, mode{tr: newTracer(w.name)})
	if err != nil {
		t.Fatal(err)
	}
	v := map[string]float64{}
	var c checks
	if err := hostBudget(rc, v, p, &c); err != nil {
		t.Fatal(err)
	}
	if c.attempted != 1 || c.failed != 0 {
		t.Errorf("functional twin instruction check: %+v", c)
	}
	for _, name := range []string{"torch.host_ms", "timing.model_ms", "exec.functional_ms"} {
		if v[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, v[name])
		}
	}
	if sum := v["torch.host_ms"] + v["timing.model_ms"] + v["exec.functional_ms"]; sum < 0.9*p.wallS*1e3 {
		t.Errorf("layers account for %g ms of a %g ms pass", sum, p.wallS*1e3)
	}
}

func TestWrongPinShowsAsDrift(t *testing.T) {
	w := findWorkload("lenet_mnist")
	p, err := onePass(w, 1, smokeScale, mode{})
	if err != nil {
		t.Fatal(err)
	}
	right := pinTable{w.name: pin{Params: w.params(smokeScale), Seed: 1, Cycles: p.o.cycles}}
	if got := right.match(w, smokeScale, p.o); got != 100 {
		t.Errorf("matching pin: sim_match_pct = %g, want 100", got)
	}
	wrong := pinTable{w.name: pin{Params: w.params(smokeScale), Seed: 1, Cycles: p.o.cycles + p.o.cycles/50}}
	if got := wrong.match(w, smokeScale, p.o); got >= 99 {
		t.Errorf("pin off by 2%%: sim_match_pct = %g, want about 98", got)
	}
}

// With a faulty ex2 injected into the simulated device, the transformer
// output leaves the CPU oracle and the run must say so.
func TestWrongResultFailsChecks(t *testing.T) {
	w := findWorkload("xf_hybrid")
	sc := smokeScale
	sc.xfIters = 2
	for _, tc := range []struct {
		bugs     exec.BugSet
		wantFail bool
	}{{exec.BugSet{}, false}, {exec.BugSet{BreakOp: ptx.OpEx2}, true}} {
		p, err := onePass(w, 1, sc, mode{bugs: tc.bugs})
		if err != nil {
			t.Fatal(err)
		}
		var c checks
		p.inst.verify(p.o, &c)
		if c.attempted == 0 || (c.failed > 0) != tc.wantFail {
			t.Errorf("bugs %+v: %d of %d checks failed, want failure = %v", tc.bugs, c.failed, c.attempted, tc.wantFail)
		}
		if rec := newRecord(c, endToEnd, nil); rec.Correct == tc.wantFail {
			t.Errorf("bugs %+v: record says correct = %v", tc.bugs, rec.Correct)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %g, %g, want 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	suite := func(wall []float64, failed int) *suiteResult {
		sw := suiteWorkload{Name: "w", Attempted: 10, Failed: failed, EndToEnd: map[string]e2eSummary{}}
		for _, d := range endToEnd {
			samples := []float64{100, 100, 100}
			if d.Name == "host_cpu_s" {
				samples = wall
			}
			s := e2eSummary{Better: d.Better, Bound: d.Bound, Samples: samples, Median: median(samples)}
			s.Q1, s.Q3 = quartiles(samples)
			sw.EndToEnd[d.Name] = s
		}
		return &suiteResult{Workloads: []suiteWorkload{sw}}
	}
	base := suite([]float64{1.00, 1.01, 1.02}, 0)
	for _, tc := range []struct {
		name    string
		b       *suiteResult
		verdict string
		exit    int
	}{
		{"same", suite([]float64{1.01, 1.02, 1.03}, 0), "PASS", 0},
		{"slower", suite([]float64{1.30, 1.31, 1.32}, 0), "REGRESS", 1},
		{"noisy", suite([]float64{0.8, 1.0, 1.5}, 0), "UNRESOLVED", 0},
		{"fails", suite([]float64{1.00, 1.01, 1.02}, 1), "REGRESS", 1},
	} {
		var out bytes.Buffer
		if exit := compareSuites(base, tc.b, &out); exit != tc.exit || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: exit %d, want %d with a %s row:\n%s", tc.name, exit, tc.exit, tc.verdict, out.String())
		}
	}
}

// A machine that runs the reference 25% slower around a pass makes the
// pass's CPU seconds read 25% less, and the reference itself must cost
// CPU time (the compiler may not drop its loops).
func TestReferenceClock(t *testing.T) {
	got := normalise([]float64{1.0, 3.0}, []float64{1.0, 1.5, 0.5})
	if got[0] != 0.8 || got[1] != 3.0 {
		t.Errorf("normalise = %v, want [0.8 3]", got)
	}
	if s := hostSlowdown(); s < 0.05 || s > 50 {
		t.Errorf("hostSlowdown = %g: the reference ran implausibly fast or slowly", s)
	}
}
