// Package core is the top-level facade of the reproduction: it wires the
// functional machine, the cycle-level timing engine, the hardware oracle,
// the power model and the workloads into the paper's experiments —
// MNIST correlation (Figs. 6-7), the power breakdown (Fig. 8), and the
// conv_sample case studies (Figs. 9-25).
package core

import (
	"fmt"
	"math"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/hwmodel"
	"repro/internal/mnist"
	"repro/internal/power"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/torch"
)

// GPU selects a modelled card.
type GPU string

// Supported GPU models.
const (
	GTX1050   GPU = "gtx1050"
	GTX1080Ti GPU = "gtx1080ti"
)

// TimingConfig returns the timing configuration for a GPU.
func (g GPU) TimingConfig() (timing.Config, error) {
	switch g {
	case GTX1050:
		return timing.GTX1050(), nil
	case GTX1080Ti:
		return timing.GTX1080Ti(), nil
	}
	return timing.Config{}, fmt.Errorf("core: unknown GPU %q", g)
}

// MNISTCorrelationResult holds the Figs. 6-8 data.
type MNISTCorrelationResult struct {
	Images      int
	Correlation stats.Correlation
	Power       power.Breakdown
	Engine      *timing.Engine
	SimCycles   uint64
	HWCycles    float64
	SelfCheckOK bool
	GPUClasses  []int
	CPUClasses  []int
}

// RunMNISTCorrelation reproduces §IV: run LeNet/MNIST inference on the
// detailed timing model and on the hardware oracle, correlate per-kernel
// cycles (Figs. 6-7), and compute the power breakdown (Fig. 8). The
// detailed engine steps SM cores on `workers` host goroutines.
func RunMNISTCorrelation(workers, images int) (*MNISTCorrelationResult, error) {
	ds := mnist.NewDataset(1)
	imgs, _ := ds.Batch(images)

	// --- detailed simulator (performance mode, GTX 1050) ---
	sim, err := session.New(timing.GTX1050(), workers)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	simDev, eng := sim.Dev, sim.Eng
	simModel, err := mnist.NewLeNet(simDev, 7, mnist.DefaultAlgos())
	if err != nil {
		return nil, err
	}
	if _, err := simModel.Forward(imgs, images); err != nil {
		return nil, fmt.Errorf("core: simulator run: %w", err)
	}

	// --- hardware oracle (same weights: same seed) ---
	hwDev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return nil, err
	}
	oracle := hwmodel.GTX1050()
	hwDev.Ctx.SetRunner(oracle)
	hwModel, err := mnist.NewLeNet(hwDev, 7, mnist.DefaultAlgos())
	if err != nil {
		return nil, err
	}
	if _, err := hwModel.Forward(imgs, images); err != nil {
		return nil, fmt.Errorf("core: oracle run: %w", err)
	}

	// pair per-launch samples by position (same deterministic sequence)
	simLog := simDev.Ctx.KernelStatsLog()
	hwLog := oracle.Samples
	n := len(simLog)
	if len(hwLog) < n {
		n = len(hwLog)
	}
	var samples []stats.KernelTime
	for i := 0; i < n; i++ {
		if simLog[i].Name != hwLog[i].Name {
			return nil, fmt.Errorf("core: kernel sequences diverged at %d: %s vs %s",
				i, simLog[i].Name, hwLog[i].Name)
		}
		samples = append(samples, stats.KernelTime{
			Name: simLog[i].Name, SimCycles: float64(simLog[i].Cycles),
			HWCycles: hwLog[i].Cycles, Launches: 1,
		})
	}
	corr := stats.Correlate(samples)
	corr.SortByHW()

	pm := power.DefaultModel()
	pb := pm.Average(eng.Stats(), eng.Cycle(), eng.Config().ClockMHz)

	// self check on the functional device (the sample's own validation)
	fnModel, _, err := mnist.NewDefaultLeNet(exec.BugSet{})
	if err != nil {
		return nil, err
	}
	ok, gpu, cpu, err := fnModel.SelfCheck(imgs, images)
	if err != nil {
		return nil, err
	}

	return &MNISTCorrelationResult{
		Images:      images,
		Correlation: corr,
		Power:       pb,
		Engine:      eng,
		SimCycles:   eng.Cycle(),
		HWCycles:    corr.TotalHW,
		SelfCheckOK: ok,
		GPUClasses:  gpu,
		CPUClasses:  cpu,
	}, nil
}

// ConvDirection is a conv_sample pass direction.
type ConvDirection string

// Directions of the §V-A sweep.
const (
	Forward        ConvDirection = "fwd"
	BackwardData   ConvDirection = "bwddata"
	BackwardFilter ConvDirection = "bwdfilter"
)

// ConvSampleShape sizes the conv_sample workload.
type ConvSampleShape struct {
	N, C, H, W int
	K, R       int
	Pad        int
}

// DefaultConvShape mirrors a small conv_sample configuration that every
// algorithm supports (3x3 stride-1; 28x28 keeps plain FFT in range).
func DefaultConvShape() ConvSampleShape {
	return ConvSampleShape{N: 1, C: 8, H: 28, W: 28, K: 8, R: 3, Pad: 1}
}

// AlgorithmsFor lists the paper's §V-A algorithm sweep per direction.
func AlgorithmsFor(dir ConvDirection) []string {
	switch dir {
	case Forward:
		return []string{"fft", "fft_tiling", "gemm", "implicit_gemm", "winograd", "winograd_nonfused"}
	case BackwardData:
		return []string{"algo0", "algo1", "fft_tiling", "winograd", "winograd_nonfused"}
	case BackwardFilter:
		return []string{"algo0", "algo1", "algo3", "fft", "fft_tiling", "winograd_nonfused"}
	}
	return nil
}

// ConvSampleResult carries the timing engine (closed; its statistics
// and partitions feed the AerialVision plots) and kernel log of one
// conv_sample run.
type ConvSampleResult struct {
	Engine  *timing.Engine
	Cycles  uint64
	Kernels []cudart.KernelStats
}

// RunConvSample runs one (direction, algorithm) case of §V on the given
// GPU's timing model, stepping SM cores across `workers` host goroutines
// (0 = NumCPU). Results are identical for any worker count; only
// wall-clock time changes.
func RunConvSample(gpu GPU, workers int, dir ConvDirection, algo string, shape ConvSampleShape) (*ConvSampleResult, error) {
	cfg, err := gpu.TimingConfig()
	if err != nil {
		return nil, err
	}
	s, err := session.New(cfg, workers)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	ctx, h, eng := s.Dev.Ctx, s.Dev.H, s.Eng

	xd := cudnn.TensorDesc{N: shape.N, C: shape.C, H: shape.H, W: shape.W}
	fd := cudnn.FilterDesc{K: shape.K, C: shape.C, R: shape.R, S: shape.R}
	cd := cudnn.ConvDesc{Pad: shape.Pad, Stride: 1}
	oh := cd.OutDim(xd.H, fd.R)
	ow := cd.OutDim(xd.W, fd.S)
	yd := cudnn.TensorDesc{N: xd.N, C: fd.K, H: oh, W: ow}

	// x, w, dy, y, dx, dw — allocated in this order, inputs uploaded
	var ptrs [6]uint64
	for i, n := range []int{xd.Count(), fd.Count(), yd.Count(), yd.Count(), xd.Count(), fd.Count()} {
		if ptrs[i], err = ctx.Malloc(uint64(4 * n)); err != nil {
			return nil, err
		}
	}
	px, pw, pdy, py, pdx, pdw := ptrs[0], ptrs[1], ptrs[2], ptrs[3], ptrs[4], ptrs[5]
	ctx.MemcpyF32HtoD(px, synth(xd.Count(), 0.7))
	ctx.MemcpyF32HtoD(pw, synth(fd.Count(), -0.3))
	ctx.MemcpyF32HtoD(pdy, synth(yd.Count(), 0.2))

	switch dir {
	case Forward:
		fa, err := algoNamed(algo, cudnn.FwdAlgoImplicitGemm, cudnn.FwdAlgoGemm, cudnn.FwdAlgoFFT,
			cudnn.FwdAlgoFFTTiling, cudnn.FwdAlgoWinograd, cudnn.FwdAlgoWinogradNonfused)
		if err != nil {
			return nil, err
		}
		if _, err := h.ConvolutionForward(fa, px, xd, pw, fd, cd, py); err != nil {
			return nil, err
		}
	case BackwardData:
		ba, err := algoNamed(algo, cudnn.BwdDataAlgo0, cudnn.BwdDataAlgo1, cudnn.BwdDataFFTTiling,
			cudnn.BwdDataWinograd, cudnn.BwdDataWinogradNonfused)
		if err != nil {
			return nil, err
		}
		if err := h.ConvolutionBackwardData(ba, pw, fd, pdy, yd, cd, pdx, xd); err != nil {
			return nil, err
		}
	case BackwardFilter:
		ba, err := algoNamed(algo, cudnn.BwdFilterAlgo0, cudnn.BwdFilterAlgo1, cudnn.BwdFilterAlgo3,
			cudnn.BwdFilterFFT, cudnn.BwdFilterFFTTiling, cudnn.BwdFilterWinogradNonfused)
		if err != nil {
			return nil, err
		}
		if err := h.ConvolutionBackwardFilter(ba, px, xd, pdy, yd, cd, pdw, fd); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown direction %q", dir)
	}

	return &ConvSampleResult{Engine: eng, Cycles: eng.Cycle(), Kernels: ctx.KernelStatsLog()}, nil
}

// algoNamed returns the one of algos that prints as name: the cuDNN
// enums' String forms are the names the §V-A sweep uses.
func algoNamed[A fmt.Stringer](name string, algos ...A) (A, error) {
	for _, a := range algos {
		if a.String() == name {
			return a, nil
		}
	}
	var none A
	return none, fmt.Errorf("core: unknown algorithm %q", name)
}

func synth(n int, phase float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)*0.37+float64(phase))) * 0.5
	}
	return out
}
