// Package gpgpusim is the public API of this reproduction of "Analyzing
// Machine Learning Workloads Using a Detailed GPU Simulator" (Lew et al.,
// ISPASS 2019): a GPGPU-Sim-style PTX simulator able to run cuDNN-style
// deep-learning workloads, together with the paper's correlation, power
// and AerialVision case-study experiments.
//
// The heavy lifting lives in internal packages; this package re-exports
// the surfaces a downstream user needs:
//
//   - NewContext / Context: a CUDA-runtime context over the simulated GPU
//     (functional mode by default).
//   - CreateCuDNN: the cuDNN-analog library handle (registers the PTX
//     kernel corpus: GEMM, implicit GEMM, FFT, FFT-tiling, Winograd
//     fused/non-fused, LRN, pooling, softmax, ...).
//   - NewTimingEngine + UseTiming: switch a context into the cycle-level
//     Performance simulation mode (GTX 1050 / GTX 1080 Ti models).
//   - NewDevice / LeNet / dataset helpers: the PyTorch-analog framework
//     and the MNIST workload.
//   - DebugTool: the §III-D functional-debug methodology.
//   - CheckpointCapture / CheckpointResume: the §III-F flow.
//
// The paper's experiments (§IV correlation and power, §V conv_sample and
// bank camping) are workloads of cmd/gpgpusim; internal/core has their
// drivers. See README.md for a quickstart and the system inventory.
package gpgpusim

import (
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/debug"
	"repro/internal/exec"
	"repro/internal/mnist"
	"repro/internal/timing"
	"repro/internal/torch"
)

// Core simulator types.
type (
	// Context is a CUDA-runtime context over the simulated GPU.
	Context = cudart.Context
	// Params marshals kernel launch arguments.
	Params = cudart.Params
	// KernelStats summarises one kernel execution.
	KernelStats = cudart.KernelStats
	// Stream is a CUDA stream handle. In Performance mode, launches and
	// async copies on distinct non-default streams execute concurrently
	// inside the detailed timing model (multi-grid dispatch).
	Stream = cudart.Stream
	// Event is a CUDA event handle.
	Event = cudart.Event
	// KernelTicket is a handle to a kernel submitted to the timing
	// engine's concurrent queue via TimingEngine.Submit; stats become
	// available after TimingEngine.Drain.
	KernelTicket = timing.Ticket
	// Dim3 is a CUDA dim3.
	Dim3 = exec.Dim3
	// BugSet selects injected functional bugs (zero value = correct).
	BugSet = exec.BugSet
	// TimingConfig describes a modelled GPU.
	TimingConfig = timing.Config
	// TimingEngine is the cycle-level performance model.
	TimingEngine = timing.Engine
	// CuDNN is the cuDNN-analog library handle.
	CuDNN = cudnn.Handle
	// Device is the PyTorch-analog device.
	Device = torch.Device
	// LeNet is the MNIST workload model.
	LeNet = mnist.LeNet
	// DebugTool drives the §III-D functional-debug flow.
	DebugTool = debug.Tool
	// DebugReport is the debug flow's finding.
	DebugReport = debug.Report
	// CheckpointPoint selects where to checkpoint (§III-F).
	CheckpointPoint = checkpoint.Point
	// CheckpointState is captured Data1+Data2.
	CheckpointState = checkpoint.State
	// GPU selects a modelled card for the experiments.
	GPU = core.GPU
)

// GPU presets.
const (
	GTX1050   = core.GTX1050
	GTX1080Ti = core.GTX1080Ti
)

// DefaultStream is the legacy device-synchronizing stream 0.
const DefaultStream = cudart.DefaultStream

// NewContext creates a functional-mode simulator context.
func NewContext(bugs BugSet) *Context { return cudart.NewContext(bugs) }

// NewParams returns a kernel argument builder.
func NewParams() *Params { return cudart.NewParams() }

// CreateCuDNN registers the kernel library on a context and returns the
// cuDNN-analog handle.
func CreateCuDNN(ctx *Context) (*CuDNN, error) { return cudnn.Create(ctx) }

// SimOption configures a timing engine built through this facade.
type SimOption = timing.Option

// WithWorkers makes the timing engine step SM cores concurrently on n
// host goroutines (0 selects runtime.NumCPU()). The simulation stays
// deterministic: any worker count reports identical cycle counts and
// per-kernel statistics.
func WithWorkers(n int) SimOption { return timing.WithWorkers(n) }

// NewTimingEngine builds a cycle-level engine for a GPU preset.
func NewTimingEngine(gpu GPU, opts ...SimOption) (*TimingEngine, error) {
	cfg, err := gpu.TimingConfig()
	if err != nil {
		return nil, err
	}
	return timing.New(cfg, opts...)
}

// UseTiming switches a context into Performance simulation mode. The
// installed runner also models concurrent multi-kernel stream execution:
// Context.LaunchOnStream and the async memcpys queue on non-default
// streams and overlap in the detailed model until the next
// synchronisation point (StreamSynchronize / DeviceSynchronize / any
// synchronous copy).
func UseTiming(ctx *Context, e *TimingEngine) { ctx.SetRunner(timing.Runner{E: e}) }

// NewDevice creates a PyTorch-analog device over a fresh simulated GPU.
func NewDevice(bugs BugSet) (*Device, error) { return torch.NewDevice(bugs) }

// Transformer-inference workload surfaces.
type (
	// TransformerConfig sizes the transformer encoder workload.
	TransformerConfig = torch.TransformerConfig
	// TransformerEncoder is the transformer-inference workload model; its
	// ForwardBatch overlaps per-sequence forward passes on CUDA streams.
	TransformerEncoder = torch.TransformerEncoder
)

// NewTransformerEncoder builds the transformer-inference encoder on a
// device with deterministically seeded weights.
func NewTransformerEncoder(dev *Device, seed int64, cfg TransformerConfig) (*TransformerEncoder, error) {
	return torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(seed)), cfg)
}

// NewLeNet builds the MNIST workload on a fresh functional device.
func NewLeNet(bugs BugSet) (*LeNet, *Device, error) { return mnist.NewDefaultLeNet(bugs) }

// NewMNISTDataset builds the deterministic synthetic MNIST-like dataset.
func NewMNISTDataset(seed int64) *mnist.Dataset { return mnist.NewDataset(seed) }
