// Package exec implements GPGPU-Sim-style functional simulation of PTX
// kernels: warps of 32 threads executing in lockstep under SIMT
// reconvergence stacks, with barriers, predication, all memory spaces,
// textures and atomics. The timing model (internal/timing) drives the same
// machine one warp-instruction at a time; the functional mode used for
// fast-forwarding (paper §III-F) runs warps to completion directly.
//
// The first `Machine.NewGrid` of a kernel under a `BugSet` lowers its
// instructions once (decode.go) into handler ids, register rows, resolved
// immediates and symbols, kept on the kernel (`ptx.Kernel.Derive`) for
// every Machine with that BugSet; `Machine.StepWarp` then runs one
// handler over a warp's 32-lane rows.
// This comment holds the rules a change to the interpreter must keep,
// each with the test that enforces it.
//
// # Semantics
//
//   - `Machine.evalALU` is the single definition of what an instruction
//     computes. Every hand-written warp-wide loop (alu_warp.go) is pinned
//     to it bit for bit over edge operands, guard masks and every `BugSet`
//     (`TestSpecialisedMatchesScalar`; where two NaN sources of a
//     commutative f32 operation meet, only NaN-ness is compared, since
//     PTX leaves the payload unspecified). A new loop ships with its row in
//     that matrix and a measured share of about 1% of the warp
//     instructions of some benchmark workload.
//   - Decoding never fails; execution does. An instruction no handler can
//     execute becomes an entry carrying its error, raised naming the
//     instruction only when it executes with an active lane, and the
//     Machine stays usable (`TestMalformedInstructionsError`). Trailing
//     operands an opcode does not read are ignored.
//   - A launch with a negative grid or block component is refused by
//     NewGrid (the analogue of cudaErrorInvalidConfiguration) on every
//     runner, and the context's next launch runs
//     (`TestNegativeLaunchDims`).
//   - BugSet survives decoding: an opcode `BugSet.BreakOp` names is never
//     specialised, so it reaches evalALU, which perturbs it; `BugSet.RemU64`
//     and `BugSet.BFESigned` live in evalALU's rem and bfe, which are never
//     specialised. A program is therefore per kernel and BugSet, whichever
//     Machine lowered it first (`TestBreakOpSurvivesSharedPrograms`), and
//     no flag selects another interpreter, so internal/debug's
//     localisation keeps working.
//   - A barrier releases when every live warp of the CTA has arrived, so a
//     warp that exits first does not deadlock it (`TestBarrierDeadlock`).
//
// # Architectural state
//
//   - `CTA.Reset` is the one definition of a fresh CTA: `Grid.InitCTA`
//     ends with it, and `Machine.RunGrid`, the timing dispatcher's free
//     lists and the hardware oracle reuse storage through it, so recycled
//     storage reads as fresh (`core.TestRecycledStorageReadsFresh`).
//     `FreeList` holds recycled warps and shared memory with no shape; a
//     buffer too small is reallocated, never a different layout.
//   - The state keeps the layout internal/checkpoint serialises:
//     `Warp.Regs` row-major by register row, `Warp.Stack`, `Warp.Locals`,
//     `CTA.Shared`.
//   - Registers live in rows the decoder allocates (regalloc.go), as ptxas
//     maps virtual registers: liveness over the block CFG, then a greedy
//     colouring. Uses are issueTable's walk (guard, every source including
//     ignored trailing ones, memory bases, vector elements); only an
//     unguarded write the decoder lowers kills; a destination interferes
//     with everything live into or out of its instruction; a register
//     live at entry keeps a row of its own, so it still reads zero.
//     Liveness is the warp's (`warpSuccs`: a diverged branch's taken side
//     may be followed by its fall-through side), because a row's
//     scoreboard entry is per warp: at any read it must be the def time
//     of the row's one live value. Per lane it is sound because writes
//     are per active lane and no opcode reads another lane's registers; a
//     cross-lane opcode (shfl, vote) must first make its sources interfere
//     with everything live across it. Referees: `FuzzRegAlloc` (a naive
//     forward-search liveness checker over thread and warp paths: no two
//     registers live or defined at one PC share a row),
//     `TestRowsHoldTheirDefs` (executed reads find their row last written
//     by their own register, per warp and per lane),
//     `TestLibraryRegsDefinedBeforeRead`,
//     `timing.TestDivergentSidesKeepRows`, `core.TestSharedRowsReadAsBefore`
//     and the goldens. `Grid.RegMap` is the map; a checkpoint saves it and
//     resume refuses another.
//   - `StepInfo` is filled in place through a pointer each SM core and
//     each `Machine.RunCTA` loop owns, and counts nothing shared.
//
// # Footprint
//
//   - Every process keeps the parsed library and its lowered programs, so
//     both are records of fixed size: a parsed instruction is at most 96
//     bytes and its operands 56 each, in one array per instruction; a
//     lowered instruction is one 64-byte record of what StepWarp reads
//     (handler, guard, rows, branch target, memory base and offset), with
//     every PC's scoreboard rows in one array beside the records
//     (`IssueTable`), and what only an error, a generic instruction,
//     coverage or an atomic needs is read off the ptx.Instr by PC
//     (`TestRecordSizes`). The 55 library kernels hold at most 2,000 KB
//     parsed and 500 KB lowered (`TestLibraryFootprint`).
//
// # Memory
//
//   - `device.Memory` is lock-free on the access path, with a mutex only
//     on page fault-in, Snapshot and Restore; reads of untouched pages
//     return zero without faulting a page in
//     (`device.TestConcurrentFaultIn`, `device.TestZeroReadStaysNonResident`,
//     and the race run in CI). Page contents are not synchronised:
//     threads of a race-free kernel touch disjoint bytes, and cross-CTA
//     atomics are serialised by the timing engine's atomic drain.
//   - Every global access goes through `gcursor`, which records into
//     `Machine.rec` while `Machine.CaptureGrid` builds hybrid replay's
//     `GridMemo`. A new memory path that bypasses it calls
//     `memRecorder.recordRead` and `memRecorder.recordWrite` itself or
//     sets `memRecorder.unsound`, as a texture fetch does
//     (`TestRecorderMatchesByteModel`). `ComposeMemos` applied equals its
//     members applied in order, and matches exactly when no input byte of
//     the sequence moved (`TestComposeMemos`).
//
// # Modes
//
//   - `Coverage` counts only functional execution: RunGrid and
//     CaptureGrid pass the machine's counter to StepWarp and the timing
//     cores pass nil, so cores stepping concurrently share no counter. Its
//     reader is the §III-D debug flow.
//   - The runaway guard is in StepWarp, so every entry point meets it: a
//     warp that has executed `maxWarpInstrs` instructions in its CTA
//     (`Warp.InstrCount`, across barrier episodes) returns a
//     `RunawayError` naming kernel, CTA and warp. On the timing path it
//     aborts the batch like a faulting instruction and leaves engine and
//     Machine usable (`TestRunawayGuard`, `TestRunawayMidDrain`). It is a
//     constant, not a knob; the largest count a tier-1 test or a
//     benchmark workload reaches is more than a thousand times below it.
//   - `Machine.ObserveGrid` is RunGrid with a callback after every step,
//     the one loop the hardware oracle's Runner form counts through.
//   - RunGrid runs blocks in block order. A test-only seam
//     (export_test.go's `SetCTAOrder`) runs them reversed or in a seeded
//     permutation, CaptureGrid included; a launch whose final image moves
//     with the order — float atomics, a cross-CTA race — is reported,
//     and the library's residual add is not (`TestCTAOrderDependence`).
//   - A texture name maps to the cudaArray bound to it and nothing else:
//     f32 texels, point-sampled, clamp-to-edge (`TestTextureFetch`,
//     `device.TestCudaArrayClamp`).
package exec
