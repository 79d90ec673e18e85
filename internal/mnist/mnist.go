// Package mnist provides the paper's evaluation workload: a LeNet-style
// CNN classifying MNIST-like digits. Because the environment is offline,
// the dataset is synthetic — deterministic class-conditioned digit
// patterns — which preserves what the paper measures (the cuDNN kernel
// mix: fft2d_r2c_32x32/16x16, CGEMM, Winograd, GEMV2T, LRN, pooling,
// softmax) while remaining self-contained. The network's convolution
// geometry is chosen so the FFT frames are exactly 32x32 for conv1
// (28 + 5 - 1) and 16x16 for conv2 (12 + 5 - 1), matching the kernel set
// the paper reports for MNIST in Fig. 7.
package mnist

import (
	"math/rand"

	"repro/internal/cudnn"
	"repro/internal/ref"
	"repro/internal/torch"
)

// ImageSize is the MNIST edge length.
const ImageSize = 28

// NumClasses is the digit count.
const NumClasses = 10

// Dataset is a deterministic synthetic MNIST-like dataset.
type Dataset struct {
	protos [NumClasses][]float32
	rng    *rand.Rand
}

// NewDataset builds the synthetic dataset with a fixed seed.
func NewDataset(seed int64) *Dataset {
	d := &Dataset{rng: rand.New(rand.NewSource(seed))}
	protoRng := rand.New(rand.NewSource(977))
	for c := 0; c < NumClasses; c++ {
		img := make([]float32, ImageSize*ImageSize)
		// class-conditioned strokes: a few blobs at class-dependent spots
		for b := 0; b < 4; b++ {
			cy := 4 + (c*5+b*7)%20
			cx := 4 + (c*3+b*11)%20
			for dy := -3; dy <= 3; dy++ {
				for dx := -3; dx <= 3; dx++ {
					y, x := cy+dy, cx+dx
					if y < 0 || y >= ImageSize || x < 0 || x >= ImageSize {
						continue
					}
					dist := float32(dy*dy + dx*dx)
					img[y*ImageSize+x] += float32(0.9) / (1 + dist/2)
				}
			}
		}
		// light deterministic texture
		for i := range img {
			img[i] += protoRng.Float32() * 0.05
			if img[i] > 1 {
				img[i] = 1
			}
		}
		d.protos[c] = img
	}
	return d
}

// Sample returns one image and its label, with per-sample noise.
func (d *Dataset) Sample() ([]float32, int32) {
	c := int32(d.rng.Intn(NumClasses))
	img := make([]float32, ImageSize*ImageSize)
	copy(img, d.protos[c])
	for i := range img {
		img[i] += (d.rng.Float32() - 0.5) * 0.1
	}
	return img, c
}

// Batch returns n images and labels concatenated NCHW.
func (d *Dataset) Batch(n int) ([]float32, []int32) {
	imgs := make([]float32, 0, n*ImageSize*ImageSize)
	labels := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		img, l := d.Sample()
		imgs = append(imgs, img...)
		labels = append(labels, l)
	}
	return imgs, labels
}

// AlgoChoice selects the convolution algorithms per layer.
type AlgoChoice struct {
	Conv1Fwd cudnn.ConvFwdAlgo // 5x5 on 28x28 -> FFT 32x32 by default
	Conv2Fwd cudnn.ConvFwdAlgo // 5x5 on 12x12 -> FFT 16x16 by default
	Conv3Fwd cudnn.ConvFwdAlgo // 3x3 -> Winograd by default
}

// DefaultAlgos reproduces the paper's MNIST kernel mix.
func DefaultAlgos() AlgoChoice {
	return AlgoChoice{
		Conv1Fwd: cudnn.FwdAlgoFFT,
		Conv2Fwd: cudnn.FwdAlgoFFT,
		Conv3Fwd: cudnn.FwdAlgoWinograd,
	}
}

// LeNet is the model: conv(1→8,5x5) relu LRN pool, conv(8→16,5x5) relu
// pool, conv(16→32,3x3,pad1) relu, FC 512→84 relu, FC 84→10, softmax.
type LeNet struct {
	Dev  *torch.Device
	Net  *torch.Sequential
	Head *torch.SoftmaxNLL
}

// NewLeNet builds the model with deterministic initial weights.
func NewLeNet(dev *torch.Device, seed int64, algos AlgoChoice) (*LeNet, error) {
	rng := rand.New(rand.NewSource(seed))
	conv1, err := torch.NewConv2d(dev, rng, 1, 8, 5, 0, 1,
		algos.Conv1Fwd, cudnn.BwdDataAlgo0, cudnn.BwdFilterAlgo0)
	if err != nil {
		return nil, err
	}
	conv2, err := torch.NewConv2d(dev, rng, 8, 16, 5, 0, 1,
		algos.Conv2Fwd, cudnn.BwdDataAlgo0, cudnn.BwdFilterAlgo0)
	if err != nil {
		return nil, err
	}
	conv3, err := torch.NewConv2d(dev, rng, 16, 32, 3, 1, 1,
		algos.Conv3Fwd, cudnn.BwdDataWinograd, cudnn.BwdFilterWinogradNonfused)
	if err != nil {
		return nil, err
	}
	fc1, err := torch.NewLinear(dev, rng, 32*4*4, 84)
	if err != nil {
		return nil, err
	}
	fc2, err := torch.NewLinear(dev, rng, 84, NumClasses)
	if err != nil {
		return nil, err
	}
	net := &torch.Sequential{Mods: []torch.Module{
		conv1,
		&torch.ReLU{Dev: dev},
		&torch.LRN{Dev: dev, Desc: cudnn.LRNDesc{N: 5, K: 2, Alpha: 1e-2, Beta: 0.75}},
		&torch.MaxPool2d{Dev: dev, Window: 2, Stride: 2},
		conv2,
		&torch.ReLU{Dev: dev},
		&torch.MaxPool2d{Dev: dev, Window: 2, Stride: 2},
		conv3,
		&torch.ReLU{Dev: dev},
		&torch.Flatten{},
		fc1,
		&torch.ReLU{Dev: dev},
		fc2,
	}}
	return &LeNet{Dev: dev, Net: net, Head: &torch.SoftmaxNLL{Dev: dev}}, nil
}

// Forward runs inference on a batch, returning class probabilities.
func (m *LeNet) Forward(images []float32, n int) ([]float32, error) {
	x, err := m.Dev.FromHost(images, n, 1, ImageSize, ImageSize)
	if err != nil {
		return nil, err
	}
	logits, err := m.Net.Forward(x)
	if err != nil {
		return nil, err
	}
	probs, err := m.Dev.NewTensor(n, NumClasses)
	if err != nil {
		return nil, err
	}
	if err := m.Dev.H.SoftmaxForward(logits.Ptr, probs.Ptr, n, NumClasses); err != nil {
		return nil, err
	}
	return probs.ToHost(), nil
}

// ForwardCPU runs the identical network on the host (internal/ref) with
// the current device weights — the self-checking oracle of §IV.
func (m *LeNet) ForwardCPU(images []float32, n int) []float32 {
	x, shape := images, []int{n, 1, ImageSize, ImageSize}
	x, shape = m.Net.ForwardCPU(x, shape)
	return ref.Softmax(x, shape[0], shape[1])
}

// TrainStep runs one forward+backward+update step; returns the loss.
func (m *LeNet) TrainStep(images []float32, labels []int32, lr float32) (float32, error) {
	n := len(labels)
	x, err := m.Dev.FromHost(images, n, 1, ImageSize, ImageSize)
	if err != nil {
		return 0, err
	}
	logits, err := m.Net.Forward(x)
	if err != nil {
		return 0, err
	}
	_, loss, err := m.Head.Forward(logits, labels)
	if err != nil {
		return 0, err
	}
	dLogits, err := m.Head.Backward()
	if err != nil {
		return 0, err
	}
	if _, err := m.Net.Backward(dLogits); err != nil {
		return 0, err
	}
	opt := &torch.SGD{Dev: m.Dev, LR: lr, Params: m.Net.Params()}
	if err := opt.Step(); err != nil {
		return 0, err
	}
	return loss, nil
}
