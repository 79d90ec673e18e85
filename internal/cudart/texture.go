package cudart

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/device"
)

// MemcpyToArrayFromDevice fills a cudaArray from device memory (f32).
// Like the other synchronous copies it is device-synchronizing: queued
// async stream work drains before the device memory is read.
func (c *Context) MemcpyToArrayFromDevice(arr *device.CudaArray, src uint64, n int) {
	_ = c.drainPending()
	buf := make([]byte, 4*n)
	c.Mem.Read(src, buf)
	for i := 0; i < n && i < len(arr.Data); i++ {
		arr.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
}

// TexRefByName returns the primary host texref handle for a module-level
// texture symbol.
func (c *Context) TexRefByName(name string) (*device.TexRef, error) {
	ref, ok := c.texRefs[name]
	if !ok {
		return nil, fmt.Errorf("cudart: unknown texture symbol %q", name)
	}
	return ref, nil
}

// BindTextureToArray binds an array to a texref (cudaBindTextureToArray).
// Rebinding implicitly unbinds the previous array first.
func (c *Context) BindTextureToArray(ref *device.TexRef, arr *device.CudaArray) error {
	return c.Tex.BindTextureToArray(ref, arr)
}
