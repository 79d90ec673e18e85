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

// ModuleElementwise contains activation/bias/SGD/conversion kernels.
func ModuleElementwise() string {
	return Module(nil,
		ReluForward(), ReluBackward(), AddBias(), SGDUpdate(), Scale(),
		AccumulateAdd(), FillZero(), RotateFilter180(), Pad2D(),
		F32ToF16Kernel(), F16ToF32Kernel(),
	)
}

// ModuleGemm contains the GEMM family and im2col/col2im staging.
func ModuleGemm() string {
	return Module(nil, SgemmTiled(), Gemv2T(), Im2Col(), Col2Im())
}

// ModuleConvDirect contains the direct (implicit GEMM / Algorithm 0/1/3)
// convolution kernels.
func ModuleConvDirect() string {
	return Module(nil,
		ConvForwardImplicitGemm(), ConvBwdDataAlgo0(), ConvBwdDataAlgo1(),
		ConvBwdFilterAlgo0(), ConvBwdFilterAlgo1(), ConvBwdFilterAlgo3(),
	)
}

// ModuleFFT contains the FFT convolution pipeline. It deliberately also
// carries its own copy of fill_zero (duplicate symbol across modules).
func ModuleFFT() string {
	return Module(nil,
		FFTR2C32(), FFTR2C16(), FFTC2R32(), FFTC2R16(),
		CGemm(), CGemmBwdFilter(), FFTCrop(), FFTTileExtract(), FFTTileStitch(), FillZero(),
	)
}

// ModuleWinograd contains the Winograd kernels.
func ModuleWinograd() string {
	return Module(nil,
		WinogradFused(), WinogradFilterTransform(), WinogradInputTransform(),
		WinogradOutputTransform(), WinogradBwdFilter(),
	)
}

// ModulePoolSoftmax contains pooling and softmax kernels.
func ModulePoolSoftmax() string {
	return Module(nil,
		MaxPoolForward(), MaxPoolBackward(), SoftmaxForward(), SoftmaxNLLBackward(),
	)
}

// ModuleLRN contains the texture-based LRN kernels and declares the
// module-level texref they sample.
func ModuleLRN() string {
	return Module([]string{LRNTexName}, LRNForward(), LRNBackward())
}

// ModuleTransformer contains the transformer-inference kernels: the NT
// strided-batched GEMM (attention scores), layernorm, GELU, residual
// add, the head split/merge permutes and the embedding gather.
func ModuleTransformer() string {
	return Module(nil,
		SgemmNTBatched(), LayerNormForward(), GeluForward(), ResidualAdd(),
		SplitHeads(), MergeHeads(), EmbeddingLookup(),
	)
}

// ModuleDecode contains the KV-cached autoregressive-decode kernels:
// cache append, the single-token attention GEMVs over the cache, the
// causal-masked softmax, the tied-embedding logit GEMV and the on-device
// greedy argmax.
func ModuleDecode() string {
	return Module(nil,
		KVCacheAppend(), AttnQKCached(), AttnAVCached(), SoftmaxCausal(),
		LogitGemv(), ArgmaxU32(),
	)
}

// ModuleTrain contains the transformer training kernels: the TN
// strided-batched GEMM (weight gradients, attention dK/dV), the
// layernorm/GELU/softmax backward passes, the fused softmax +
// cross-entropy loss gradient, and the atomics-based embedding
// scatter-add.
func ModuleTrain() string {
	return Module(nil,
		SgemmTNBatched(), LayerNormBackward(), GeluBackward(),
		SoftmaxBackward(), SoftmaxXentBackward(), EmbeddingBackward(),
	)
}

// AllModules returns every library module, in registration order.
func AllModules() []string {
	return []string{
		ModuleElementwise(), ModuleGemm(), ModuleConvDirect(),
		ModuleFFT(), ModuleWinograd(), ModulePoolSoftmax(), ModuleLRN(),
		ModuleTransformer(), ModuleDecode(), ModuleTrain(),
	}
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
