// Package multigpu couples N independent timing engines into one
// simulated multi-GPU node. Each device is a session.Session of its
// own; the node adds a modelled NVLink fabric
// (internal/nvlink) and a coordinator that drives per-device work in
// *phases*: between collectives every device runs freely — and the host
// steps them concurrently on the shared worker pool — while at a
// collective boundary the coordinator performs the functional data
// movement itself, in rank order, prices the collective on the fabric,
// and fast-forwards every engine to its completion cycle.
//
// The rules a change to the multi-device path must keep, each with the
// test that enforces it:
//
//   - The coordinator owns every cross-device byte. Collectives
//     (`Node.AllReduce`, `Node.AllGatherCols`) run on the coordinator
//     goroutine in rank order over raw device reads and writes; functional
//     effects never touch the per-device timelines, and the modelled
//     all-reduce sums in rank order 0..N-1, matching
//     `torch.AllReduceCPUGrads` exactly. Per-rank phases between collectives run through
//     `Node.Parallel` on the exported `timing.Pool` and may interleave
//     arbitrarily on the host, because they share no state.
//   - Synchronisation is keyed only off modelled cycles. A collective
//     rendezvouses at the max of the per-engine clocks, charges the fabric
//     (`nvlink.Fabric`: directed-link busy horizons that only advance, a
//     transfer starting at max(ready, horizon)), then
//     `timing.Engine.AdvanceTo` fast-forwards every engine to the
//     collective's end. AdvanceTo refuses a non-empty queue, so a
//     collective first synchronises every rank's device, queued stream
//     work included, and returns the first error in rank order; it then
//     reads memory and clocks that work has already written
//     (`TestCollectivesSynchroniseRanks`). Before that, a collective
//     checks every rank's operands (list lengths, element counts, shard
//     shapes, destination sizes), so a mismatched call fails without
//     effects: no sync, no fabric charge, no byte written
//     (`TestCollectivesFailWithoutEffects`). Every run ends on the same
//     rendezvous, so the
//     per-device cycle counts are equal at the end by construction.
//   - -j1 and -jN are byte-identical across devices: modelled cycles,
//     per-device stats, replay counters, final weight bytes and output
//     bytes (`TestDPTrainWorkerDeterminism`, `TestDPTrainReplayDeterminism`,
//     `TestTPInferWorkerDeterminism`, and the dp_train_small and
//     tp_transformer_small entries of `TestGoldenStats`). `Config.Workers`
//     changes host time only.
//   - Data-parallel replicas stay in lock-step. Every rank is a
//     session.Session built and primed the same way, so identical seeds
//     give every rank identical device addresses; all-reduced gradients and
//     per-replica SGD at lr/N keep the weights byte-identical across ranks
//     after every step. `RunDPTrain` checks that every run and errors on
//     the first divergent byte (`TestDPTrainMatchesSingleDevice`).
//   - Tensor-parallel sharding is column-only. Every sharded GEMM keeps the
//     full contraction dimension in the same k-order, and all-gathers only
//     concatenate bytes, so outputs are bitwise equal to the single-device
//     encoder on every rank at every world size: `RunTPInfer` verifies each
//     sequence against the encoder's Forward
//     (`TestTPInferDigestMatchesAcrossWorlds`). A row split reorders k and
//     breaks this contract.
//   - Per-rank timing divergence is expected: identical kernels take
//     slightly different cycles across ranks (carried DRAM row and cache
//     state), and correctness never depends on clocks agreeing between
//     rendezvous points.
package multigpu
