package torch_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/golden"
	"repro/internal/torch"
)

var update = flag.Bool("update", false, "rewrite testdata/launch_pin.json from the launches the models issue now")

// chainPin pins one scenario's ordered launch trace: what a model call
// launches, in which order, into which buffers. The raw parameter bytes
// carry the device addresses, so the order of every allocation is pinned
// with them — and replay signatures, modelled cycles and every golden
// downstream are functions of exactly this trace. A refactor of the
// model layer must pass as is; only a PR that means to change what a
// model launches may regenerate the file (-update).
type chainPin struct {
	Launches int    `json:"launches"`
	SHA256   string `json:"sha256"`
	// Marks holds four hex digits of FNV-1a per field per launch (the
	// pinFields order), so a mismatch can be traced to its first
	// differing launch and field without storing the trace itself.
	Marks string `json:"marks"`
}

var pinFields = []string{"kernel", "grid", "block", "dynamic shared bytes", "parameter bytes", "API tag"}

const markLen = 4

func launchFields(r *cudart.LaunchRecord) []string {
	dim := func(d [3]int) string { return fmt.Sprintf("%d,%d,%d", d[0], d[1], d[2]) }
	return []string{
		r.Kernel,
		dim([3]int{r.GridDim.X, r.GridDim.Y, r.GridDim.Z}),
		dim([3]int{r.BlockDim.X, r.BlockDim.Y, r.BlockDim.Z}),
		fmt.Sprint(r.Shared),
		hex.EncodeToString(r.Params),
		r.API,
	}
}

func pinOf(trace []*cudart.LaunchRecord) chainPin {
	sum := sha256.New()
	var marks strings.Builder
	for _, r := range trace {
		fields := launchFields(r)
		fmt.Fprintln(sum, strings.Join(fields, "|"))
		for _, f := range fields {
			h := fnv.New32a()
			h.Write([]byte(f))
			fmt.Fprintf(&marks, "%0*x", markLen, h.Sum32()&0xffff)
		}
	}
	return chainPin{Launches: len(trace), SHA256: hex.EncodeToString(sum.Sum(nil)), Marks: marks.String()}
}

// firstDiff names the first launch, and the field of it, whose mark
// differs from the pinned one.
func firstDiff(trace []*cudart.LaunchRecord, got, want chainPin) string {
	per := markLen * len(pinFields)
	for i, r := range trace {
		if (i+1)*per > len(want.Marks) {
			return fmt.Sprintf("launch %d (%s, %s) is past the end of the %d pinned launches", i, r.Kernel, r.API, want.Launches)
		}
		for f, name := range pinFields {
			at := i*per + f*markLen
			if got.Marks[at:at+markLen] != want.Marks[at:at+markLen] {
				return fmt.Sprintf("launch %d (%s, %s) is the first to differ, in its %s (%d launches, %d pinned)",
					i, r.Kernel, r.API, name, got.Launches, want.Launches)
			}
		}
	}
	if got.Launches < want.Launches {
		return fmt.Sprintf("the trace stops after %d of the %d pinned launches", got.Launches, want.Launches)
	}
	return "sha256 differs although no per-field mark does"
}

// The sample model and input every scenario uses.
var (
	pinModel = torch.TransformerConfig{Layers: 2, Heads: 4, DModel: 32, FF: 64, Vocab: 61, MaxSeq: 16}
	pinIDs   = []int32{3, 1, 4, 1, 5, 9, 2, 6}
)

const pinSeed = 7

// capturingDev returns a fresh functional device that records every
// launch from now on.
func capturingDev(t *testing.T) *torch.Device {
	t.Helper()
	dev := newDev(t)
	dev.Ctx.CaptureLaunches(true)
	return dev
}

func pinEncoder(t *testing.T, dev *torch.Device) *torch.TransformerEncoder {
	t.Helper()
	enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(pinSeed)), pinModel)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// gatherCols is the host-side all-gather between two tensor-parallel
// phases: every rank's pending column shard, concatenated in rank order,
// lands in every rank's full-width destination.
func gatherCols(shards []*torch.TPShard) {
	_, dst0 := shards[0].PendingGather()
	rows, cols := dst0.Dim(0), dst0.Dim(1)
	n := cols / len(shards)
	full := make([]float32, rows*cols)
	for r, s := range shards {
		part, _ := s.PendingGather()
		for i, v := range part.ToHost() {
			full[(i/n)*cols+r*n+i%n] = v
		}
	}
	for _, s := range shards {
		_, dst := s.PendingGather()
		s.Dev.Ctx.MemcpyF32HtoD(dst.Ptr, full)
	}
}

func TestLaunchChainPinned(t *testing.T) {
	traces := map[string][]*cudart.LaunchRecord{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	dev := capturingDev(t)
	refOut, err := pinEncoder(t, dev).Forward(pinIDs)
	must(err)
	traces["forward"] = dev.Ctx.CapturedLaunches()

	dev = capturingDev(t)
	_, err = pinEncoder(t, dev).ForwardBatch([][]int32{pinIDs, pinIDs[:5], pinIDs[:3]}, true)
	must(err)
	traces["forward_batch_streams"] = dev.Ctx.CapturedLaunches()

	dev = capturingDev(t)
	dec, err := torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(pinSeed)), pinModel)
	must(err)
	_, err = dec.Generate(pinIDs[:5], 4)
	must(err)
	traces["generate"] = dev.Ctx.CapturedLaunches()

	dev = capturingDev(t)
	trainer, err := torch.NewTransformerTrainer(dev, pinEncoder(t, dev), 0.05)
	must(err)
	_, err = trainer.TrainStep(pinIDs)
	must(err)
	traces["train_step"] = dev.Ctx.CapturedLaunches()

	// Two tensor-parallel ranks driven phase by phase; the reference
	// encoder they shard lives on a device of its own.
	ref := pinEncoder(t, newDev(t))
	shards := make([]*torch.TPShard, 2)
	for r := range shards {
		shards[r], err = torch.NewTPShard(capturingDev(t), ref, r, len(shards))
		must(err)
	}
	each := func(phase func(*torch.TPShard) error) {
		t.Helper()
		for _, s := range shards {
			must(phase(s))
		}
	}
	each(func(s *torch.TPShard) error { return s.StartForward(pinIDs) })
	for blk := 0; blk < shards[0].Layers(); blk++ {
		for _, phase := range []func(*torch.TPShard, int) error{
			(*torch.TPShard).AttnCtx, (*torch.TPShard).AttnOut, (*torch.TPShard).MLPAct, (*torch.TPShard).MLPOut,
		} {
			each(func(s *torch.TPShard) error { return phase(s, blk) })
			gatherCols(shards)
		}
		each(func(s *torch.TPShard) error { return s.EndBlock(blk) })
	}
	want := refOut.ToHost()
	for r, s := range shards {
		y, err := s.Output()
		must(err)
		for i, v := range y.ToHost() {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("tensor-parallel rank %d output[%d] = %g, the encoder's Forward %g (not bitwise identical)", r, i, v, want[i])
			}
		}
		traces[fmt.Sprintf("tp2_rank%d", r)] = s.Dev.Ctx.CapturedLaunches()
	}

	convTraces(t, traces)

	got := map[string]chainPin{}
	for name, trace := range traces {
		got[name] = pinOf(trace)
	}
	golden.Check(t, filepath.Join("testdata", "launch_pin.json"), *update, got,
		func(name string, g, w chainPin) string { return firstDiff(traces[name], g, w) })
}

// convPinShape is one shape of the convolution scenarios; all have N=2,
// C=3 and K=2 and square inputs and filters.
type convPinShape struct {
	name             string
	hw, r, pad, step int
}

var convPinShapes = []convPinShape{
	{"12x12_r3_pad1", 12, 3, 1, 1},    // every pair; plain FFT on 16x16 frames
	{"34x34_r3_pad1", 34, 3, 1, 1},    // FFT tiling over 2x2 tiles of 32x32; plain FFT refuses
	{"11x11_r5_stride2", 11, 5, 0, 2}, // the direct algorithms
}

// convRefusals is every (shape, direction, algorithm) the library answers
// with ErrNotSupported, and its reason.
var convRefusals = map[string]string{
	"34x34_r3_pad1/fwd/fft":                        "FFT frame 36 exceeds 32x32 (use FFT tiling)",
	"34x34_r3_pad1/bwdfilter/fft":                  "FFT frame 36 exceeds 32x32 (use FFT tiling)",
	"11x11_r5_stride2/fwd/fft":                     "FFT convolution requires stride 1",
	"11x11_r5_stride2/fwd/fft_tiling":              "FFT tiling requires stride 1",
	"11x11_r5_stride2/fwd/winograd":                "Winograd requires 3x3 filters and stride 1",
	"11x11_r5_stride2/fwd/winograd_nonfused":       "Winograd requires 3x3 filters and stride 1",
	"11x11_r5_stride2/bwddata/fft_tiling":          "fft_tiling backward data requires stride 1",
	"11x11_r5_stride2/bwddata/winograd":            "winograd backward data requires stride 1",
	"11x11_r5_stride2/bwddata/winograd_nonfused":   "winograd_nonfused backward data requires stride 1",
	"11x11_r5_stride2/bwdfilter/fft":               "FFT backward filter requires stride 1",
	"11x11_r5_stride2/bwdfilter/fft_tiling":        "FFT backward filter requires stride 1",
	"11x11_r5_stride2/bwdfilter/winograd_nonfused": "Winograd backward filter requires 3x3 stride 1",
}

// convTraces adds a scenario per (shape, direction, algorithm) of the
// paper's §V-A sweep that the library supports, each issued through the
// cuDNN handle of a fresh device. Every pair of the sweep must be pinned
// at some shape, and every refusal must be one of convRefusals.
func convTraces(t *testing.T, traces map[string][]*cudart.LaunchRecord) {
	pinned := map[string]bool{}
	refused := map[string]string{}
	for _, s := range convPinShapes {
		xd := cudnn.TensorDesc{N: 2, C: 3, H: s.hw, W: s.hw}
		fd := cudnn.FilterDesc{K: 2, C: 3, R: s.r, S: s.r}
		cd := cudnn.ConvDesc{Pad: s.pad, Stride: s.step}
		yd := cudnn.TensorDesc{N: 2, C: 2, H: cd.OutDim(s.hw, s.r), W: cd.OutDim(s.hw, s.r)}
		for _, dir := range []core.ConvDirection{core.Forward, core.BackwardData, core.BackwardFilter} {
			for _, algo := range core.AlgorithmsFor(dir) {
				dev := capturingDev(t)
				var bufs [6]uint64 // x, w, dy, y, dx, dw
				for i, n := range []int{xd.Count(), fd.Count(), yd.Count(), yd.Count(), xd.Count(), fd.Count()} {
					var err error
					if bufs[i], err = dev.Ctx.Malloc(uint64(4 * n)); err != nil {
						t.Fatal(err)
					}
				}
				x, w, dy, y, dx, dw := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4], bufs[5]
				var err error
				switch dir {
				case core.Forward:
					_, err = dev.H.ConvolutionForward(algoNamed(t, algo, cudnn.FwdAlgoWinogradNonfused), x, xd, w, fd, cd, y)
				case core.BackwardData:
					err = dev.H.ConvolutionBackwardData(algoNamed(t, algo, cudnn.BwdDataWinogradNonfused), w, fd, dy, yd, cd, dx, xd)
				case core.BackwardFilter:
					err = dev.H.ConvolutionBackwardFilter(algoNamed(t, algo, cudnn.BwdFilterWinogradNonfused), x, xd, dy, yd, cd, dw, fd)
				}
				key := s.name + "/" + string(dir) + "/" + algo
				var ns cudnn.ErrNotSupported
				switch {
				case errors.As(err, &ns):
					refused[key] = ns.Reason
				case err != nil:
					t.Fatalf("%s: %v", key, err)
				default:
					traces["conv_"+string(dir)+"_"+algo+"_"+s.name] = dev.Ctx.CapturedLaunches()
					pinned[string(dir)+"/"+algo] = true
				}
			}
		}
	}
	for _, dir := range []core.ConvDirection{core.Forward, core.BackwardData, core.BackwardFilter} {
		for _, algo := range core.AlgorithmsFor(dir) {
			if !pinned[string(dir)+"/"+algo] {
				t.Errorf("%s %s is refused at every shape, so nothing pins its launches", dir, algo)
			}
		}
	}
	for key, reason := range refused {
		if want, ok := convRefusals[key]; !ok || reason != want {
			t.Errorf("%s refused with %q, want %q", key, reason, want)
		}
	}
	for key := range convRefusals {
		if _, ok := refused[key]; !ok {
			t.Errorf("%s ran, want it refused with %q", key, convRefusals[key])
		}
	}
}

// algoNamed returns the algorithm of A, from 0 up to last, that prints as
// name: the cuDNN enums' String forms are the names of the §V-A sweep.
func algoNamed[A interface {
	~int
	fmt.Stringer
}](t *testing.T, name string, last A) A {
	t.Helper()
	for a := A(0); a <= last; a++ {
		if a.String() == name {
			return a
		}
	}
	t.Fatalf("no algorithm prints as %q", name)
	return 0
}
