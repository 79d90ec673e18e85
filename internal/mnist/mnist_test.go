package mnist_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/mnist"
	"repro/internal/ptx"
	"repro/internal/ref"
	"repro/internal/torch"
)

// newLeNet builds the §IV model (seed 7, default algorithms) on a fresh
// functional device.
func newLeNet(t *testing.T, bugs exec.BugSet) *mnist.LeNet {
	t.Helper()
	dev, err := torch.NewDevice(bugs)
	if err != nil {
		t.Fatal(err)
	}
	model, err := mnist.NewLeNet(dev, 7, mnist.DefaultAlgos())
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return model
}

// TestSelfCheckInference is the paper's functional validation: the LeNet
// forward pass on the simulated GPU (FFT + Winograd + GEMV2T + LRN
// kernels) must classify exactly like the CPU reference.
func TestSelfCheckInference(t *testing.T) {
	model := newLeNet(t, exec.BugSet{})
	ds := mnist.NewDataset(1)
	images, _ := ds.Batch(3) // the paper simulates 3 images
	probs, err := model.Forward(images, 3)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	gpu := ref.Argmax(probs, 3, mnist.NumClasses)
	cpu := ref.Argmax(model.ForwardCPU(images, 3), 3, mnist.NumClasses)
	if !slices.Equal(gpu, cpu) {
		t.Fatalf("GPU and CPU classifications disagree: %v vs %v", gpu, cpu)
	}
}

// TestGPUProbsMatchCPU tightens the self-check to the probability level.
func TestGPUProbsMatchCPU(t *testing.T) {
	model := newLeNet(t, exec.BugSet{})
	ds := mnist.NewDataset(2)
	images, _ := ds.Batch(2)
	gpuProbs, err := model.Forward(images, 2)
	if err != nil {
		t.Fatal(err)
	}
	cpuProbs := model.ForwardCPU(images, 2)
	var maxd float64
	for i := range gpuProbs {
		d := math.Abs(float64(gpuProbs[i] - cpuProbs[i]))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 2e-2 {
		t.Fatalf("GPU vs CPU probability diff %g", maxd)
	}
}

// TestTrainingReducesLoss runs a few SGD steps end to end on the
// simulator (forward FFT/Winograd convs, backward data/filter kernels,
// pooling/LRN/softmax gradients, sgd_update) and checks learning.
func TestTrainingReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop is slow under -short")
	}
	model := newLeNet(t, exec.BugSet{})
	ds := mnist.NewDataset(3)
	images, labels := ds.Batch(2)
	first, err := model.TrainStep(images, labels, 0.05)
	if err != nil {
		t.Fatalf("train step: %v", err)
	}
	var last float32
	for i := 0; i < 6; i++ {
		last, err = model.TrainStep(images, labels, 0.05)
		if err != nil {
			t.Fatalf("train step %d: %v", i, err)
		}
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %v, last %v", first, last)
	}
}

// TestRemBugBreaksMNIST reproduces the paper's central debugging episode:
// with a faulty remainder implementation injected, the convolution
// pipeline (rem.u32-heavy index math in cgemm, im2col, crop and bias
// kernels) silently corrupts the forward pass and the self-check catches
// a probability mismatch.
//
// Note on fidelity: the exact original GPGPU-Sim bug (rem always computed
// as u64 % u64) is reproduced bit-for-bit by BugSet.RemU64 and validated
// at instruction level in internal/exec; it only changes results when a
// rem operand carries sign-extended (negative) upper bits, which our
// kernel corpus's index arithmetic never produces. The end-to-end
// demonstration therefore injects the generic faulty-rem mode (BreakOp),
// which perturbs every rem result the way any incorrect implementation
// would have.
func TestRemBugBreaksMNIST(t *testing.T) {
	good := newLeNet(t, exec.BugSet{})
	bad := newLeNet(t, exec.BugSet{BreakOp: ptx.OpRem})
	ds := mnist.NewDataset(4)
	images, _ := ds.Batch(1)
	goodProbs, err := good.Forward(images, 1)
	if err != nil {
		t.Fatal(err)
	}
	badProbs, err := bad.Forward(images, 1)
	if err != nil {
		// A hard failure is also an acceptable manifestation of the bug.
		t.Logf("buggy run failed outright: %v", err)
		return
	}
	same := true
	for i := range goodProbs {
		if math.Abs(float64(goodProbs[i]-badProbs[i])) > 1e-6 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rem bug injection did not perturb MNIST outputs")
	}
}

func TestDatasetDeterminism(t *testing.T) {
	a := mnist.NewDataset(9)
	b := mnist.NewDataset(9)
	ia, la := a.Batch(4)
	ib, lb := b.Batch(4)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("dataset images are not deterministic")
		}
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("dataset labels are not deterministic")
		}
	}
}
