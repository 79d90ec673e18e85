package kernels

import (
	"fmt"
	"sync"

	"repro/internal/ptx"
)

// Library assembly. Mirroring real cuDNN — whose shared library embeds
// many PTX translation units, with some symbol names repeated across
// units (§III-A) — the kernel corpus is split into several modules that
// must each be registered with a separate cudart.RegisterModule call.
// The fill_zero helper is intentionally present in two modules to keep
// the duplicate-symbol behaviour exercised.

// library lists the modules in registration order: the texrefs each one
// declares and the generators of its kernels. A new kernel is a generator
// function plus a row entry here (then TestLibraryPTXPinned -update).
var library = []struct {
	textures []string
	kernels  []func() string
}{
	// elementwise: activation/bias/SGD/conversion kernels
	{nil, []func() string{
		reluForward, addBias, sgdUpdate, accumulateAdd,
		fillZero, rotateFilter180, pad2D, f32ToF16Kernel, f16ToF32Kernel,
	}},
	// gemm: the GEMM family and im2col staging
	{nil, []func() string{sgemmTiled, gemv2T, im2Col}},
	// conv_direct: the direct (implicit GEMM / Algorithm 0/1/3)
	// convolution kernels
	{nil, []func() string{
		convForwardImplicitGemm, convBwdDataAlgo0, convBwdDataAlgo1,
		convBwdFilterAlgo0, convBwdFilterAlgo1, convBwdFilterAlgo3,
	}},
	// fft: the FFT convolution pipeline. It deliberately also carries its
	// own copy of fill_zero (duplicate symbol across modules).
	{nil, []func() string{
		fftR2C32, fftR2C16, fftC2R32, fftC2R16,
		cgemm, cgemmBwdFilter, fftCrop, fftTileExtract, fftTileStitch, fillZero,
	}},
	// winograd: the Winograd kernels
	{nil, []func() string{
		winogradFused, winogradFilterTransform, winogradInputTransform,
		winogradOutputTransform, winogradBwdFilter,
	}},
	// pool_softmax: pooling and softmax kernels
	{nil, []func() string{maxPoolForward, softmaxForward}},
	// lrn: the texture-based LRN kernel; declares the module-level
	// texref it samples
	{[]string{LRNTexName}, []func() string{lrnForward}},
	// transformer: the transformer-inference kernels — the NT
	// strided-batched GEMM (attention scores), layernorm, GELU, residual
	// add, the head split/merge permutes and the embedding gather
	{nil, []func() string{
		sgemmNTBatched, layerNormForward, geluForward, residualAdd,
		splitHeads, mergeHeads, embeddingLookup,
	}},
	// decode: the KV-cached autoregressive-decode kernels — cache append,
	// the single-token attention GEMVs over the cache, the causal-masked
	// softmax, the tied-embedding logit GEMV and the on-device greedy
	// argmax
	{nil, []func() string{
		kvCacheAppend, attnQKCached, attnAVCached, softmaxCausal,
		logitGemv, argmaxU32,
	}},
	// train: the transformer training kernels — the TN strided-batched
	// GEMM (weight gradients, attention dK/dV), the layernorm/GELU/softmax
	// backward passes, the fused softmax + cross-entropy loss gradient,
	// and the atomics-based embedding scatter-add
	{nil, []func() string{
		sgemmTNBatched, layerNormBackward, geluBackward,
		softmaxBackward, softmaxXentBackward, embeddingBackward,
	}},
}

// AllModules returns every library module, in registration order.
func AllModules() []string {
	var mods []string
	for _, m := range library {
		var srcs []string
		for _, gen := range m.kernels {
			srcs = append(srcs, gen())
		}
		mods = append(mods, Module(m.textures, srcs...))
	}
	return mods
}

// ParsedModules returns AllModules parsed, in registration order. The
// library is generated and parsed once per process: a parsed module is
// never written after ptx.Parse returns, so every device in the process
// registers the same *ptx.Module values.
var ParsedModules = sync.OnceValues(func() ([]*ptx.Module, error) {
	var mods []*ptx.Module
	for i, src := range AllModules() {
		m, err := ptx.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("kernels: parsing library module %d: %w", i, err)
		}
		mods = append(mods, m)
	}
	return mods, nil
})
