// Package torch is the PyTorch-analog mini-framework of this
// reproduction: device tensors, LeNet's inference layers, the transformer
// modules with their backward passes, and an SGD optimizer, all
// implemented by calling the cuDNN-analog library (internal/cudnn)
// through the CUDA runtime — the same layering through
// which PyTorch reaches cuDNN in the paper (§III-E).
//
// This is where a framework call becomes a kernel chain: which kernels,
// in which order, into which freshly allocated buffers. The transformer
// block's forward chain is spelled out once, as phases of
// `MultiHeadAttention` and `TransformerBlock`, which the encoder, the
// KV-cached decoder and `TPShard` schedule differently. This comment holds
// the rules a change to the model layer must keep, each with the test that
// enforces it.
//
// # Launch order
//
//   - Allocate and launch in the order the chain always did. Device
//     addresses come from allocation order and travel in every launch's
//     parameter bytes, so they decide replay signatures, cache behaviour
//     and modelled cycles. `TestLaunchChainPinned` (testdata/launch_pin.json)
//     records every launch's kernel, dims, shared bytes, parameter bytes
//     and API tag for the encoder, a streamed batch, the decoder, a
//     training step and a tensor-parallel pair; only a change that means
//     to alter what a model launches records it again with -update.
//   - `Device.OnStreams` is every "one chain per stream" loop. On every
//     path, a failed chain included, it restores the default stream and
//     destroys its streams (`TestOnStreamsFailedChain`).
//
// # Workload contract
//
// Every workload ships three properties. A stream-overlapped run and a
// serialised one are functionally identical with identical per-kernel
// instruction counts (`timing.TestTransformerStreamVsSerialDifferential`);
// -j1 and -jN are byte-identical
// (`timing.TestTransformerStreamWorkerDeterminism`); and cycles and
// per-kernel instruction counts are pinned in the timing package's golden
// stats (`timing.TestGoldenStats`). Every module carries a ForwardCPU
// oracle (`TestTransformerEncoderForwardMatchesCPU` and one test per
// module). The transformer's oracles — the encoder's and the decoder's
// ForwardCPU, GenerateCPU and `CPUTrainState` — run one host model, a
// snapshot of `TransformerEncoder.Params()`; its outputs are pinned bit
// for bit (`TestHostModelPinned`), the decoder's is causal
// (`TestDecoderOracleIsCausal`), and generated shapes hold the device to
// it (`TestGeneratedShapesMatchHostModel`).
//
// # Training
//
//   - Gradient allocation is lazy and training-only. `EnsureGrads`
//     allocates gradient buffers after model construction and inference
//     never calls it, so the allocation traces, and the device addresses
//     timing depends on, of every inference golden stay byte-identical.
//     A forward pass may cache activation pointers for backward but never
//     allocates.
//   - Backward fails loudly without gradients: a module's Backward checks
//     its parameters' gradient buffers first and errors naming the
//     parameter (`gradsRequired`; `TestBackwardWithoutGradsFailsLoudly`,
//     `TestTransformerBackwardRequiresGrads`).
//   - `SGD.Step` updates in parameter order and stops at the first
//     failure; the error names the index and states that the parameters
//     before it have been updated (`TestSGDStepPartialState`).
//   - Atomics drain deterministically: dgamma, dbeta and the embedding
//     gradient accumulate through atomic adds on the coordinator, so -j
//     identity extends to the final weight bytes and every replay counter
//     (`timing.TestTrainWorkerDeterminism`).
//   - A training step is one session iteration over a primed arena, so its
//     launch signatures repeat from step 0 and replay coverage is
//     (steps-1)/steps. Weight updates fail the memo's read-set check by
//     design, so a replayed step interprets its kernels (atomics in
//     functional order) and the loss tracks the detailed run to
//     float-atomics rounding: 1e-5, with exact timing identity for the
//     first step (`core.TestRunTrainReplay`).
//   - Loss is oracle-checked every step against `CPUTrainState`, the
//     host model with gradient buffers, an independent mirror of the
//     weights (tolerance 5e-2, observed about 5e-7), and the run fails
//     on divergence (`core.TestRunTrainSample`;
//     `TestTrainStepMatchesCPUOracle` also compares every weight after 4
//     steps).
package torch
