// Package gpgpusim is the library door of this reproduction of "Analyzing
// Machine Learning Workloads Using a Detailed GPU Simulator" (Lew et al.,
// ISPASS 2019): what a program needs to run its own PTX kernels on the
// simulated GPU, the way examples/concurrent_streams does.
//
//   - NewContext / Context: a CUDA-runtime context over the simulated GPU
//     (functional mode by default): module registration, memory, streams,
//     launches.
//   - NewParams / Params, Dim3: kernel launch arguments and geometry.
//   - NewTimingEngine + UseTiming: switch a context into the cycle-level
//     Performance simulation mode (the GTX 1050 model); modelled time is
//     read from TimingEngine.Cycle.
//
// Everything else — the cuDNN- and PyTorch-analog layers, the paper's
// experiments and its debug and checkpoint tool flows — is a workload of
// cmd/gpgpusim; internal/core has the drivers.
package gpgpusim

import (
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
)

type (
	// Context is a CUDA-runtime context over the simulated GPU.
	Context = cudart.Context
	// Params marshals kernel launch arguments.
	Params = cudart.Params
	// Dim3 is a CUDA dim3.
	Dim3 = exec.Dim3
	// BugSet selects injected functional bugs (zero value = correct).
	BugSet = exec.BugSet
	// TimingEngine is the cycle-level performance model.
	TimingEngine = timing.Engine
	// GPU selects a modelled card.
	GPU = core.GPU
)

// GTX1050 is the card the paper correlates against.
const GTX1050 = core.GTX1050

// NewContext creates a functional-mode simulator context.
func NewContext(bugs BugSet) *Context { return cudart.NewContext(bugs) }

// NewParams returns a kernel argument builder.
func NewParams() *Params { return cudart.NewParams() }

// NewTimingEngine builds a cycle-level engine for a GPU preset.
func NewTimingEngine(gpu GPU) (*TimingEngine, error) {
	cfg, err := gpu.TimingConfig()
	if err != nil {
		return nil, err
	}
	return timing.New(cfg)
}

// UseTiming switches a context into Performance simulation mode. The
// installed runner also models concurrent multi-kernel stream execution:
// Context.LaunchOnStream and the async memcpys queue on non-default
// streams and overlap in the detailed model until the next
// synchronisation point (StreamSynchronize / DeviceSynchronize / any
// synchronous copy).
func UseTiming(ctx *Context, e *TimingEngine) { ctx.SetRunner(timing.Runner{E: e}) }
