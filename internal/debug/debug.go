// Package debug implements the paper's functional-debug methodology
// (§III-D, Figs. 2-3) for localising incorrect instruction
// implementations in the simulator:
//
//  1. Differential coverage analysis: which instruction-implementation
//     paths does the failing workload exercise that the passing
//     regression suite does not?
//  2. API-call / kernel bisection: re-run the workload on a golden
//     ("hardware") context and on the suspect context with launch capture
//     enabled, and find the first kernel whose output buffers differ.
//  3. Instruction bisection: instrument that kernel's PTX so that every
//     register-writing instruction also stores its (pc, value) to a
//     per-thread log in global memory, replay the captured launch on both
//     machines, and report the first differing log entry. The instrumented
//     kernel re-emits each original instruction's source text
//     (`ptx.Instr.Raw`) unchanged (`InstrumentKernel`,
//     `TestInstrumentedKernelRoundTrip`).
//
// The golden executor plays the role real GPU hardware plays in the
// paper; the suspect executor carries injected bugs (exec.BugSet).
package debug

import (
	"bytes"
	"fmt"
	"maps"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// Workload replays an application against a context (e.g. the MNIST
// forward pass). It must be deterministic.
type Workload func(ctx *cudart.Context) error

// Report is the outcome of a full debug run.
type Report struct {
	// Step 1
	SuspiciousPaths []exec.CovKey
	// RegressionErr is why step 1 was skipped: the regression suite
	// itself failed on the suspect machine (the injected bug reaches it
	// too), so there is no passing coverage to subtract.
	RegressionErr error
	// Step 2
	BadLaunch int    // launch id of the first incorrect kernel (-1 if none)
	BadAPI    string // the library call it belongs to
	BadKernel string
	// Step 3
	BadPC     int    // pc of the first incorrectly executing instruction
	BadInstr  string // its PTX text
	BadThread int    // thread that first diverged
	GoldenVal uint64
	BuggyVal  uint64
}

// Tool drives the three-step flow.
type Tool struct {
	Workload Workload
	// Regression is an optional known-good workload for differential
	// coverage (step 1); when nil, step 1 is skipped.
	Regression Workload
	Bugs       exec.BugSet
	// EntriesPerThread bounds the instruction log (default 4096).
	EntriesPerThread int
}

// Run executes the full flow and returns the report.
func (t *Tool) Run() (*Report, error) {
	rep := &Report{BadLaunch: -1, BadPC: -1}
	entries := t.EntriesPerThread
	if entries < 0 {
		return nil, fmt.Errorf("debug: EntriesPerThread is %d, want a positive log size (0 = default)", entries)
	}
	if entries == 0 {
		entries = 4096
	}

	// ---- step 1: differential coverage ----
	if t.Regression != nil {
		regCtx := cudart.NewContext(t.Bugs)
		if err := t.Regression(regCtx); err != nil {
			rep.RegressionErr = err
		} else {
			failCtx := cudart.NewContext(t.Bugs)
			if err := t.Workload(failCtx); err == nil {
				rep.SuspiciousPaths = failCtx.M.Coverage().Diff(regCtx.M.Coverage())
			}
		}
	}

	// ---- step 2: run golden vs suspect with capture, bisect launches ----
	golden := cudart.NewContext(exec.BugSet{})
	golden.CaptureLaunches(true)
	if err := t.Workload(golden); err != nil {
		return nil, fmt.Errorf("debug: golden run failed (workload itself is broken?): %w", err)
	}
	suspect := cudart.NewContext(t.Bugs)
	suspect.CaptureLaunches(true)
	// A hard failure mid-run (e.g. a corrupted address) is itself a bug
	// manifestation; bisect with the partial capture.
	suspectErr := t.Workload(suspect)

	gl, sl := golden.CapturedLaunches(), suspect.CapturedLaunches()
	n := len(gl)
	if len(sl) < n {
		n = len(sl)
	}
	for i := 0; i < n; i++ {
		if gl[i].Kernel != sl[i].Kernel {
			return nil, fmt.Errorf("debug: launch sequences diverge at %d: %s vs %s",
				i, gl[i].Kernel, sl[i].Kernel)
		}
		if !buffersEqual(gl[i].BuffersAfter, sl[i].BuffersAfter) {
			rep.BadLaunch = i
			rep.BadAPI = gl[i].API
			rep.BadKernel = gl[i].Kernel
			break
		}
	}
	if rep.BadLaunch < 0 && suspectErr != nil && len(sl) > 0 {
		// No completed launch differed, but the suspect run died: the
		// launch it died in is the first incorrect one.
		i := len(sl) - 1
		rep.BadLaunch = i
		rep.BadAPI = sl[i].API
		rep.BadKernel = sl[i].Kernel
	}
	if rep.BadLaunch < 0 {
		if suspectErr != nil {
			return nil, fmt.Errorf("debug: suspect run failed with no captured launches: %w", suspectErr)
		}
		return rep, nil // no functional divergence found
	}

	// ---- step 3: instrument the first bad kernel and replay ----
	rec := sl[rep.BadLaunch]
	pc, raw, thread, gv, bv, err := t.bisectInstruction(rec, entries)
	if err != nil {
		return nil, fmt.Errorf("debug: instruction bisection: %w", err)
	}
	rep.BadPC = pc
	rep.BadInstr = raw
	rep.BadThread = thread
	rep.GoldenVal = gv
	rep.BuggyVal = bv
	return rep, nil
}

func buffersEqual(a, b map[uint64][]byte) bool { return maps.EqualFunc(a, b, bytes.Equal) }
