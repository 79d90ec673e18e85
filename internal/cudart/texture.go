package cudart

import (
	"fmt"

	"repro/internal/device"
)

// MemcpyToArrayFromDevice fills the first n values of a cudaArray (at
// most its length; n <= 0 copies none) from device memory (f32). Like
// the other synchronous copies it is device-synchronizing: queued async
// stream work drains before the device memory is read.
func (c *Context) MemcpyToArrayFromDevice(arr *device.CudaArray, src uint64, n int) {
	_ = c.drainPending()
	c.Mem.ReadF32(src, arr.Data[:max(min(n, len(arr.Data)), 0)])
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
