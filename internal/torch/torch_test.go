package torch_test

import (
	"math/rand"
	"testing"

	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/torch"
)

func newDev(t *testing.T) *torch.Device {
	t.Helper()
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestTensorRoundTrip(t *testing.T) {
	dev := newDev(t)
	data := []float32{1.5, -2.25, 0, 3, 42, -0.125}
	x, err := dev.FromHost(data, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.Count() != 6 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(5) != 1 {
		t.Fatalf("shape bookkeeping wrong: count=%d dims=%v", x.Count(), x.Shape)
	}
	got := x.ToHost()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], data[i])
		}
	}
	x.Free()
	if x.Ptr != 0 {
		t.Fatal("Free did not clear the pointer")
	}
	x.Free() // double free must be a no-op
}

func TestTensorZerosAndShapeMismatch(t *testing.T) {
	dev := newDev(t)
	z, err := dev.Zeros(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range z.ToHost() {
		if v != 0 {
			t.Fatalf("Zeros[%d] = %v", i, v)
		}
	}
	if _, err := dev.FromHost([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("FromHost accepted mismatched shape")
	}
}

func TestUploadLabels(t *testing.T) {
	dev := newDev(t)
	labels := []int32{3, 0, 9, 1}
	addr, err := dev.UploadLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*len(labels))
	dev.Ctx.MemcpyDtoH(buf, addr)
	for i, want := range labels {
		got := int32(uint32(buf[4*i]) | uint32(buf[4*i+1])<<8 | uint32(buf[4*i+2])<<16 | uint32(buf[4*i+3])<<24)
		if got != want {
			t.Fatalf("label %d = %d, want %d", i, got, want)
		}
	}
}

// moduleVsCPU runs a module's device Forward against its ForwardCPU
// oracle on the same input and compares elementwise.
func moduleVsCPU(t *testing.T, dev *torch.Device, m torch.Module, x []float32, shape []int, tol float32) {
	t.Helper()
	xt, err := dev.FromHost(x, shape...)
	if err != nil {
		t.Fatal(err)
	}
	yt, err := m.Forward(xt)
	if err != nil {
		t.Fatal(err)
	}
	got := yt.ToHost()
	want, wantShape := m.ForwardCPU(x, shape)
	if len(got) != len(want) {
		t.Fatalf("output size %d, oracle %d (shape %v)", len(got), len(want), wantShape)
	}
	n := 1
	for _, d := range wantShape {
		n *= d
	}
	if n != len(want) {
		t.Fatalf("oracle shape %v inconsistent with %d elements", wantShape, len(want))
	}
	for i := range got {
		d := got[i] - want[i]
		if d < -tol || d > tol {
			t.Fatalf("device/CPU mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestConv2dForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(11))
	conv, err := torch.NewConv2d(dev, rng, 2, 3, 3, 1, 1, cudnn.FwdAlgoImplicitGemm)
	if err != nil {
		t.Fatal(err)
	}
	shape := []int{1, 2, 8, 8}
	x := make([]float32, 2*8*8)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	moduleVsCPU(t, dev, conv, x, shape, 1e-4)
}

func TestReLUForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	x := []float32{-2, -0.5, 0, 0.5, 2, -3, 7, 0.25}
	moduleVsCPU(t, dev, &torch.ReLU{Dev: dev}, x, []int{1, 2, 2, 2}, 0)
}

func TestMaxPool2dForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(5))
	x := make([]float32, 1*2*8*8)
	for i := range x {
		x[i] = rng.Float32()*4 - 2
	}
	moduleVsCPU(t, dev, &torch.MaxPool2d{Dev: dev, Window: 2, Stride: 2}, x, []int{1, 2, 8, 8}, 0)
}

func TestLinearForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(3))
	lin, err := torch.NewLinear(dev, rng, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 2*12)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	moduleVsCPU(t, dev, lin, x, []int{2, 12}, 1e-4)
}

func TestSequentialForwardMatchesCPU(t *testing.T) {
	dev := newDev(t)
	rng := rand.New(rand.NewSource(17))
	conv, err := torch.NewConv2d(dev, rng, 1, 2, 3, 1, 1, cudnn.FwdAlgoImplicitGemm)
	if err != nil {
		t.Fatal(err)
	}
	net := &torch.Sequential{Mods: []torch.Module{
		conv,
		&torch.ReLU{Dev: dev},
		&torch.MaxPool2d{Dev: dev, Window: 2, Stride: 2},
		&torch.Flatten{},
	}}
	x := make([]float32, 6*6)
	for i := range x {
		x[i] = rng.Float32() - 0.5
	}
	moduleVsCPU(t, dev, net, x, []int{1, 1, 6, 6}, 1e-4)
}

// TestSGDStep checks the update rule w -= lr*g and gradient zeroing.
func TestSGDStep(t *testing.T) {
	dev := newDev(t)
	w, _ := dev.FromHost([]float32{1, 2, 3, 4}, 4)
	g, _ := dev.FromHost([]float32{0.5, -0.5, 1, 0}, 4)
	p := &torch.Param{W: w, Grad: g, Name: "p"}
	opt := &torch.SGD{Dev: dev, LR: 0.1, Params: []*torch.Param{p}}
	if err := opt.Step(); err != nil {
		t.Fatal(err)
	}
	want := []float32{0.95, 2.05, 2.9, 4}
	got := w.ToHost()
	for i := range want {
		if d := got[i] - want[i]; d < -1e-6 || d > 1e-6 {
			t.Fatalf("w[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for i, v := range g.ToHost() {
		if v != 0 {
			t.Fatalf("grad[%d] = %v after Step, want 0", i, v)
		}
	}
}
