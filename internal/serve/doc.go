// Package serve is the inference-serving scenario layer: an open-loop
// request stream (seeded Poisson, bursty on/off, or a replayable trace
// file) feeding transformer requests into a continuous-batching
// scheduler that coalesces them onto CUDA streams in the detailed timing
// model. The paper profiles ML workloads as closed batches; this package
// simulates the serving regime — requests keep arriving whether or not
// the simulated GPU keeps up — and reports the quantities serving
// systems are judged by: p50/p99/p99.9 latency, time-to-first-token and
// goodput versus offered load.
//
// The rules a change to the serving layer, or to the stream and drain
// paths under it, must keep, each with the test that enforces it:
//
//   - Admission order is arrival order, on the coordinator. Admission,
//     batch composition, stream assignment and retirement all happen on
//     the coordinator goroutine, keyed only off engine cycle counts. A request
//     may be overtaken by completions but never by a later arrival
//     (`checkInvariants` holds `RequestStats.Admitted` non-decreasing in
//     arrival order), so -j1 and -jN are byte-identical, replay counters
//     included (`TestServeWorkerDeterminism`,
//     `TestServeDecodeWorkerDeterminism`).
//   - The batch changes only at kernel-chain boundaries: one iteration is
//     admission, one chain per stream, a DeviceSynchronize drain, then
//     retirement. The batch cap is derived from occupancy headroom, each
//     resident sequence's widest kernel fitting the machine's warp
//     contexts beside the others' (`admissionCap`;
//     `TestAdmissionCapDerivation`, `TestServeAdmissionCapQueues`).
//   - Decode requests are admitted only while their KV cache fits
//     `Config.KVBudgetBytes`, and their cache bytes are freed at
//     retirement. A KV-blocked head request blocks later arrivals:
//     head-of-line blocking is what keeps arrival order
//     (`TestServeDecodeKVBudgetQueues`). A request that could never fit
//     is refused (`TestServeDecodeRejects`,
//     `TestServeRejectsOversizedRequest`).
//   - The serving clock is drain deltas plus idle fast-forwards: it
//     advances by the engine's cycle deltas across iterations and jumps to
//     the next arrival when the batch is empty. All latency and TTFT
//     arithmetic lives on it; the serve_small entry of
//     `timing.TestGoldenStats` pins it end to end.
//   - Every chain boundary ends a session iteration; resident decode
//     sessions are kept at admission and dropped at retirement. Identical
//     batch compositions therefore re-issue identical device addresses,
//     which is the replay cache's hit condition and bounds memory on long
//     traces (`TestServeReplayEquivalence`: hits with outputs bit-identical
//     to detailed mode).
//   - `ParseTrace` fails loudly: malformed or negative timestamps,
//     truncated records, trailing fields and out-of-order arrivals are
//     errors, never skipped (`FuzzTraceParse`, `TestParseTraceRejects`,
//     `TestParseTraceV2Rejects`). Accepted traces round-trip through
//     `Trace.Format` exactly (`TestTraceFormatParseRoundTrip`,
//     `TestTraceV2FormatParseRoundTrip`).
//   - Percentiles are nearest-rank (`stats.Percentile`), so a small
//     trace's tail is an observed sample, never an interpolation.
package serve
