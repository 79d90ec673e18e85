package device

import "fmt"

// CudaArray is a 1D or 2D array bound to texture references. Data is
// stored as float32 channels (Channels per texel).
type CudaArray struct {
	Width    int
	Height   int // 1 for 1D arrays
	Channels int
	Data     []float32
}

// NewCudaArray allocates a width×height array with the given channel count.
func NewCudaArray(width, height, channels int) *CudaArray {
	if height < 1 {
		height = 1
	}
	return &CudaArray{
		Width: width, Height: height, Channels: channels,
		Data: make([]float32, width*height*channels),
	}
}

// Fetch reads one texel with clamp-to-edge addressing and returns up to
// four channel values (missing channels read as 0).
func (a *CudaArray) Fetch(x, y int) [4]float32 {
	if x < 0 {
		x = 0
	}
	if x >= a.Width {
		x = a.Width - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= a.Height {
		y = a.Height - 1
	}
	var out [4]float32
	base := (y*a.Width + x) * a.Channels
	for c := 0; c < a.Channels && c < 4; c++ {
		out[c] = a.Data[base+c]
	}
	return out
}

// TexRef is a texture reference object as registered by
// __cudaRegisterTexture. Every fetch reads f32 texels, point-sampled with
// clamp-to-edge addressing (CudaArray.Fetch), so a binding carries no
// format or addressing attributes.
type TexRef struct {
	Name string
}

// TextureRegistry implements the texture-name plumbing after the paper's
// §III-C fixes:
//
//   - A texture *name* maps to a *set* of texrefs (MNIST registers multiple
//     texrefs under one name; the pre-fix map silently dropped data).
//   - The name additionally maps directly to the currently bound cudaArray,
//     and texture instructions look bindings up *by name*.
//   - Rebinding a texref that is already bound implicitly unbinds the old
//     cudaArray first.
type TextureRegistry struct {
	byName   map[string][]*TexRef
	boundArr map[string]*CudaArray
}

// NewTextureRegistry returns an empty registry.
func NewTextureRegistry() *TextureRegistry {
	return &TextureRegistry{
		byName:   make(map[string][]*TexRef),
		boundArr: make(map[string]*CudaArray),
	}
}

// RegisterTexture registers a texref under a name. Multiple registrations
// under the same name accumulate rather than overwrite.
func (r *TextureRegistry) RegisterTexture(name string, ref *TexRef) {
	ref.Name = name
	r.byName[name] = append(r.byName[name], ref)
}

// BindTextureToArray binds a cudaArray to a texref's name, where texture
// instructions resolve it. A name that already has an array bound is
// implicitly unbound first (paper §III-C second fix).
func (r *TextureRegistry) BindTextureToArray(ref *TexRef, arr *CudaArray) error {
	if len(r.byName[ref.Name]) == 0 {
		return fmt.Errorf("device: texref %q was never registered", ref.Name)
	}
	r.boundArr[ref.Name] = arr
	return nil
}

// LookupByName resolves the cudaArray bound under a texture name; texture
// instructions use this (post-fix) name-based path.
func (r *TextureRegistry) LookupByName(name string) (*CudaArray, error) {
	arr, ok := r.boundArr[name]
	if !ok || arr == nil {
		return nil, fmt.Errorf("device: no cudaArray bound to texture name %q", name)
	}
	return arr, nil
}
