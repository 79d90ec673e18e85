package torch

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
)

// Device owns a runtime context and a cudnn handle.
type Device struct {
	Ctx *cudart.Context
	H   *cudnn.Handle
}

// NewDevice creates a simulated GPU device with the library registered.
func NewDevice(bugs exec.BugSet) (*Device, error) {
	ctx := cudart.NewContext(bugs)
	h, err := cudnn.Create(ctx)
	if err != nil {
		return nil, err
	}
	return &Device{Ctx: ctx, H: h}, nil
}

// OnStreams issues n kernel chains, chain i by issue(i) — which must only
// launch, never synchronise — and drains the device. With concurrent set
// every chain rides a CUDA stream of its own (the handle's SetStream, the
// cudnnSetStream analog), so the detailed timing model overlaps them;
// otherwise all serialise on the default stream. The streams are
// single-use: on every path, a failed chain included, the handle is back
// on the default stream and the streams are destroyed (which first drains
// whatever earlier chains queued), so repeated batches do not accumulate
// stream bookkeeping.
func (d *Device) OnStreams(n int, concurrent bool, issue func(i int) error) error {
	var streams []cudart.Stream
	defer func() {
		d.H.SetStream(cudart.DefaultStream)
		for _, s := range streams {
			d.Ctx.StreamDestroy(s)
		}
	}()
	for i := 0; i < n; i++ {
		s := cudart.DefaultStream
		if concurrent {
			s = d.Ctx.StreamCreate()
			streams = append(streams, s)
		}
		d.H.SetStream(s)
		if err := issue(i); err != nil {
			return err
		}
	}
	return d.Ctx.DeviceSynchronize()
}

// Tensor is a float32 NCHW (or flat) device tensor.
type Tensor struct {
	Shape []int
	Ptr   uint64
	dev   *Device
}

// Count returns the element count.
func (t *Tensor) Count() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Dim returns shape dimension i (1 when out of range).
func (t *Tensor) Dim(i int) int {
	if i >= len(t.Shape) {
		return 1
	}
	return t.Shape[i]
}

// NewTensor allocates an uninitialised tensor.
func (d *Device) NewTensor(shape ...int) (*Tensor, error) {
	t := &Tensor{Shape: shape, dev: d}
	addr, err := d.Ctx.Malloc(uint64(4 * t.Count()))
	if err != nil {
		return nil, err
	}
	t.Ptr = addr
	return t, nil
}

// Zeros allocates a zero-filled tensor.
func (d *Device) Zeros(shape ...int) (*Tensor, error) {
	t, err := d.NewTensor(shape...)
	if err != nil {
		return nil, err
	}
	d.Ctx.Memset(t.Ptr, 0, 4*t.Count())
	return t, nil
}

// FromHost uploads host data.
func (d *Device) FromHost(data []float32, shape ...int) (*Tensor, error) {
	t, err := d.NewTensor(shape...)
	if err != nil {
		return nil, err
	}
	if len(data) != t.Count() {
		return nil, fmt.Errorf("torch: %d values for shape %v", len(data), shape)
	}
	d.Ctx.MemcpyF32HtoD(t.Ptr, data)
	return t, nil
}

// ToHost downloads the tensor contents.
func (t *Tensor) ToHost() []float32 {
	return t.dev.Ctx.MemcpyF32DtoH(t.Ptr, t.Count())
}

// Free releases the tensor's device memory.
func (t *Tensor) Free() {
	if t.Ptr != 0 {
		_ = t.dev.Ctx.Free(t.Ptr)
		t.Ptr = 0
	}
}

// UploadLabels stores int32 labels on the device (u32 buffer).
func (d *Device) UploadLabels(labels []int32) (uint64, error) {
	addr, err := d.Ctx.Malloc(uint64(4 * len(labels)))
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 4*len(labels))
	for i, l := range labels {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(l))
	}
	d.Ctx.MemcpyHtoD(addr, buf)
	return addr, nil
}

// RandInit fills a tensor with uniform values in [-scale, scale] using a
// deterministic seed (reproducible "trained weights").
func (t *Tensor) RandInit(rng *rand.Rand, scale float32) {
	data := make([]float32, t.Count())
	for i := range data {
		data[i] = (rng.Float32()*2 - 1) * scale
	}
	t.dev.Ctx.MemcpyF32HtoD(t.Ptr, data)
}
