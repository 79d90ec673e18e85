package torch

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cudnn"
	"repro/internal/ref"
)

// Module is one layer of a Sequential model.
type Module interface {
	Forward(x *Tensor) (*Tensor, error)
	// ForwardCPU runs the same computation on the host via internal/ref;
	// this is the self-check oracle (paper §IV: "MNIST contains
	// self-checking code").
	ForwardCPU(x []float32, shape []int) ([]float32, []int)
}

// Conv2d is a convolution layer with a selectable cuDNN forward algorithm.
type Conv2d struct {
	Dev       *Device
	InC, OutC int
	Kernel    int
	Pad       int
	Stride    int
	FwdAlgo   cudnn.ConvFwdAlgo
	Weight    *Tensor
	Bias      *Tensor
}

// reserveGradSlot allocates a zeroed, parameter-sized buffer that nothing
// uses. NewConv2d and NewLinear reserve one after each parameter because
// LeNet's device addresses, and with them its pinned cycle counts and
// statistics hash, depend on that layout (TestLeNetLayout).
func reserveGradSlot(dev *Device, shape ...int) error {
	_, err := dev.Zeros(shape...)
	return err
}

// NewConv2d builds a convolution layer with He-style initialisation.
func NewConv2d(dev *Device, rng *rand.Rand, inC, outC, kernel, pad, stride int, fwd cudnn.ConvFwdAlgo) (*Conv2d, error) {
	w, err := dev.NewTensor(outC, inC, kernel, kernel)
	if err != nil {
		return nil, err
	}
	if err := reserveGradSlot(dev, outC, inC, kernel, kernel); err != nil {
		return nil, err
	}
	b, err := dev.Zeros(outC)
	if err != nil {
		return nil, err
	}
	if err := reserveGradSlot(dev, outC); err != nil {
		return nil, err
	}
	scale := float32(math.Sqrt(2.0 / float64(inC*kernel*kernel)))
	w.RandInit(rng, scale)
	return &Conv2d{
		Dev: dev, InC: inC, OutC: outC, Kernel: kernel, Pad: pad, Stride: stride,
		FwdAlgo: fwd, Weight: w, Bias: b,
	}, nil
}

// Forward implements Module.
func (c *Conv2d) Forward(x *Tensor) (*Tensor, error) {
	xd := cudnn.TensorDesc{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3)}
	fd := cudnn.FilterDesc{K: c.OutC, C: c.InC, R: c.Kernel, S: c.Kernel}
	cd := cudnn.ConvDesc{Pad: c.Pad, Stride: c.Stride}
	oh := cd.OutDim(xd.H, c.Kernel)
	ow := cd.OutDim(xd.W, c.Kernel)
	y, err := c.Dev.NewTensor(xd.N, c.OutC, oh, ow)
	if err != nil {
		return nil, err
	}
	yd, err := c.Dev.H.ConvolutionForward(c.FwdAlgo, x.Ptr, xd, c.Weight.Ptr, fd, cd, y.Ptr)
	if err != nil {
		return nil, fmt.Errorf("conv2d forward (%v): %w", c.FwdAlgo, err)
	}
	if err := c.Dev.H.AddTensor(c.Bias.Ptr, y.Ptr, yd); err != nil {
		return nil, err
	}
	return y, nil
}

// ForwardCPU implements Module.
func (c *Conv2d) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	xs := ref.TensorShape4{N: shape[0], C: shape[1], H: shape[2], W: shape[3]}
	w := c.Weight.ToHost()
	bias := c.Bias.ToHost()
	y, ys := ref.Conv2DForward(x, xs, w, c.OutC, c.Kernel, ref.ConvParams{Stride: c.Stride, Pad: c.Pad})
	ref.AddBias(y, bias, ys.N, ys.C, ys.H*ys.W)
	return y, []int{ys.N, ys.C, ys.H, ys.W}
}

// ReLU activation.
type ReLU struct {
	Dev *Device
}

// Forward implements Module.
func (r *ReLU) Forward(x *Tensor) (*Tensor, error) {
	y, err := r.Dev.NewTensor(x.Shape...)
	if err != nil {
		return nil, err
	}
	if err := r.Dev.H.ActivationForward(x.Ptr, y.Ptr, x.Count()); err != nil {
		return nil, err
	}
	return y, nil
}

// ForwardCPU implements Module.
func (r *ReLU) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	return ref.Relu(x), shape
}

// MaxPool2d with square window.
type MaxPool2d struct {
	Dev    *Device
	Window int
	Stride int
}

// Forward implements Module. The kernel also writes each output's argmax
// index into a tensor of its own, which nothing reads.
func (m *MaxPool2d) Forward(x *Tensor) (*Tensor, error) {
	xd := cudnn.TensorDesc{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3)}
	oh := (xd.H-m.Window)/m.Stride + 1
	ow := (xd.W-m.Window)/m.Stride + 1
	y, err := m.Dev.NewTensor(xd.N, xd.C, oh, ow)
	if err != nil {
		return nil, err
	}
	idx, err := m.Dev.NewTensor(xd.N, xd.C, oh, ow)
	if err != nil {
		return nil, err
	}
	if _, err := m.Dev.H.PoolingForward(cudnn.PoolDesc{Window: m.Window, Stride: m.Stride}, x.Ptr, xd, y.Ptr, idx.Ptr); err != nil {
		return nil, err
	}
	return y, nil
}

// ForwardCPU implements Module.
func (m *MaxPool2d) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	xs := ref.TensorShape4{N: shape[0], C: shape[1], H: shape[2], W: shape[3]}
	y, _, ys := ref.MaxPoolForward(x, xs, m.Window, m.Stride)
	return y, []int{ys.N, ys.C, ys.H, ys.W}
}

// LRN cross-channel normalisation.
type LRN struct {
	Dev  *Device
	Desc cudnn.LRNDesc
}

// Forward implements Module.
func (l *LRN) Forward(x *Tensor) (*Tensor, error) {
	xd := cudnn.TensorDesc{N: x.Dim(0), C: x.Dim(1), H: x.Dim(2), W: x.Dim(3)}
	y, err := l.Dev.NewTensor(x.Shape...)
	if err != nil {
		return nil, err
	}
	if err := l.Dev.H.LRNCrossChannelForward(l.Desc, x.Ptr, xd, y.Ptr); err != nil {
		return nil, err
	}
	return y, nil
}

// ForwardCPU implements Module.
func (l *LRN) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	c := shape[1]
	hw := shape[2] * shape[3]
	out := make([]float32, 0, len(x))
	for n := 0; n < shape[0]; n++ {
		out = append(out, ref.LRNForward(x[n*c*hw:(n+1)*c*hw], c, hw, l.Desc.N, l.Desc.K, l.Desc.Alpha, l.Desc.Beta)...)
	}
	return out, shape
}

// Flatten reshapes NCHW to N x (CHW).
type Flatten struct{}

// Forward implements Module.
func (f *Flatten) Forward(x *Tensor) (*Tensor, error) {
	n := x.Dim(0)
	return &Tensor{Shape: []int{n, x.Count() / n}, Ptr: x.Ptr, dev: x.dev}, nil
}

// ForwardCPU implements Module.
func (f *Flatten) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	n := shape[0]
	c := 1
	for _, d := range shape[1:] {
		c *= d
	}
	return x, []int{n, c}
}

// Linear is a fully-connected layer computed with the GEMV2T kernel
// (cuDNN's FC kernel in the paper's Fig. 7).
type Linear struct {
	Dev     *Device
	In, Out int
	Weight  *Tensor // [In, Out] row-major
	Bias    *Tensor
}

// NewLinear builds an FC layer.
func NewLinear(dev *Device, rng *rand.Rand, in, out int) (*Linear, error) {
	w, err := dev.NewTensor(in, out)
	if err != nil {
		return nil, err
	}
	if err := reserveGradSlot(dev, in, out); err != nil {
		return nil, err
	}
	b, err := dev.Zeros(out)
	if err != nil {
		return nil, err
	}
	if err := reserveGradSlot(dev, out); err != nil {
		return nil, err
	}
	w.RandInit(rng, float32(math.Sqrt(2.0/float64(in))))
	return &Linear{Dev: dev, In: in, Out: out, Weight: w, Bias: b}, nil
}

// Forward implements Module.
func (l *Linear) Forward(x *Tensor) (*Tensor, error) {
	rows := x.Dim(0)
	y, err := l.Dev.NewTensor(rows, l.Out)
	if err != nil {
		return nil, err
	}
	for n := 0; n < rows; n++ {
		xOff := x.Ptr + uint64(4*n*l.In)
		yOff := y.Ptr + uint64(4*n*l.Out)
		if err := l.Dev.H.GemvT(l.Weight.Ptr, xOff, yOff, l.In, l.Out, 1, 0); err != nil {
			return nil, err
		}
	}
	yd := cudnn.TensorDesc{N: rows, C: l.Out, H: 1, W: 1}
	if err := l.Dev.H.AddTensor(l.Bias.Ptr, y.Ptr, yd); err != nil {
		return nil, err
	}
	return y, nil
}

// ForwardCPU implements Module.
func (l *Linear) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	rows := shape[0]
	w := l.Weight.ToHost()
	bias := l.Bias.ToHost()
	y := make([]float32, rows*l.Out)
	for n := 0; n < rows; n++ {
		ref.GemvT(w, x[n*l.In:(n+1)*l.In], y[n*l.Out:(n+1)*l.Out], l.In, l.Out, 1, 0)
		for j := 0; j < l.Out; j++ {
			y[n*l.Out+j] += bias[j]
		}
	}
	return y, []int{rows, l.Out}
}

// Sequential chains modules.
type Sequential struct {
	Mods []Module
}

// Forward implements Module.
func (s *Sequential) Forward(x *Tensor) (*Tensor, error) {
	var err error
	for _, m := range s.Mods {
		x, err = m.Forward(x)
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// ForwardCPU implements Module.
func (s *Sequential) ForwardCPU(x []float32, shape []int) ([]float32, []int) {
	for _, m := range s.Mods {
		x, shape = m.ForwardCPU(x, shape)
	}
	return x, shape
}
