// Package cudart is the CUDA-runtime analog the paper's workloads call
// into: device memory management, per-PTX-file module registration (the
// §III-A fix), kernel launches via both the runtime (cudaLaunch) and
// driver (cuLaunchKernel) APIs, streams and events including
// cudaStreamWaitEvent (§III-B), and the texture-binding APIs (§III-C).
//
// Execution is pluggable: the default runner performs fast functional
// simulation; internal/timing provides the cycle-level performance model
// (the paper's "Performance simulation mode").
//
// The rules of the stream API, each with the test that enforces it:
//
//   - Every launch goes one way: `StreamRunner.SubmitKernel`, with its
//     slot in the launch log reserved in launch order. `Context.SetRunner`
//     puts a bare `Runner` behind `inOrder`, which runs each kernel and
//     applies each copy at its submit. On a non-default stream
//     `Context.LaunchOnStream` and `Context.MemcpyHtoDAsync` return at
//     once; there is no device-to-host async copy. The queue drains at
//     every sync point: `Context.StreamSynchronize`,
//     `Context.DeviceSynchronize`, `Context.EventRecord`,
//     `Context.StreamDestroy`, every synchronous copy or memset and
//     every read of the launch log. The legacy default stream keeps its
//     device-synchronising semantics: a launch on it, or any captured
//     launch, drains before and after its submit and returns its own
//     failure, neither sticky nor logged; MemcpyHtoDAsync on it is an
//     immediate write (`TestDefaultStreamSync`,
//     `timing.TestDrainQueueEdgeCases`,
//     `timing.TestStreamVsSerialDifferential`).
//   - A context keeps no clock. Streams and events are handle-checked
//     ordering calls; `Context.StreamWaitEvent` holds by construction
//     because recording an event drains (`TestStreamsAndEvents`). Modelled
//     time is read in one place, the timing engine's Cycle; a functional
//     context has none.
//   - A queued kernel's error surfaces at the next explicit sync, CUDA
//     style: an implicit drain stores it and `Context.stickyError` returns
//     it once (`TestStickyAsyncError`).
//   - MemcpyHtoDAsync on a queued stream stages a copy of the host bytes,
//     as cudaMemcpyAsync from pageable memory must. The typed transfers
//     (`Context.MemcpyF32HtoD`, `Context.MemcpyF32DtoH`, `Context.Memset`)
//     write and read device pages in place, leaving the image and
//     resident pages a byte copy would, and allocate nothing into
//     resident pages but MemcpyF32DtoH's result (`TestTypedCopyAllocs`).
//   - The launch log interns its records: a table holds each distinct
//     `KernelStats` once, its LaunchID zeroed, and each launch adds one
//     pointer-free 16-byte entry naming its launch id and its record.
//     Records and entries sit in chunks that are never copied once
//     allocated; the table's index keys records by
//     `maphash.Comparable` and checks candidates with ==, so it stores no
//     second copy of a key. An async launch's placeholder is filled at
//     the drain by re-pointing its entry, a failed synchronous launch's
//     entry is dropped. The log keeps no flat copy: `Context.KernelLog`
//     ranges over it in place, in launch order, `Context.KernelLogLen`
//     counts it, and `Context.KernelStatsLog` is an exact-capacity slice
//     of it for the benchmark and the tests.
//     The log retains at most 176 bytes per launch when its records are
//     all distinct (`TestKernelLogChunks`), and at most 48 per warm
//     replayed launch, whose record repeats an earlier one
//     (`core.TestWarmLaunchRetainedBytes`).
//     `NewParams` reserves the largest library parameter block, so
//     marshalling a launch allocates once (`TestParamsOneAllocation`).
//   - The first registration of a kernel name wins a by-name lookup;
//     `Context.CuLaunchKernel` names the module explicitly
//     (`TestLookupKernelFirstRegistrationWins`).
package cudart
