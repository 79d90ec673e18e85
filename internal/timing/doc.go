// Package timing implements the cycle-level GPU performance model — the
// paper's "Performance simulation mode": SIMT cores with per-scheduler
// warp issue and register scoreboards, a memory coalescer, per-core L1
// caches, a crossbar to memory partitions each holding an L2 slice and a
// DRAM channel, and the per-interval statistics AerialVision plots
// (global/per-shader IPC, warp-issue breakdowns, per-bank DRAM
// efficiency/utilization).
//
// Every simulated cycle of `Engine.Drain` runs in phases separated by
// barriers: the issue stage on the SM cores in parallel, the atomic drain
// on the coordinator in core id order, the memory stage on the partitions
// in parallel, then completion times folding into scoreboards and the
// dispatcher refilling freed CTA slots. This comment holds the rules a
// change to the package must keep, each with the test that enforces it.
// The golden numbers behind most of them are `TestGoldenStats`
// (testdata/golden_stats.json: cycles, per-kernel counts, per-kind stall
// totals and a digest of every per-bucket series); a rule-keeping change
// passes it without -update, which is a flag of the test binary and so
// goes after the package path.
//
// # Worker count
//
// The worker count is fixed for an engine's lifetime: `WithWorkers` when
// it is built (the CLI's -j, resolved once at the front door, 0 or
// negative meaning NumCPU). Results do not depend on it. Everything
// cross-core runs on the coordinator (atomics, CTA dispatch, admission,
// retirement) or in a canonically ordered phase (partition traffic in
// core id, issue order), and statistics accumulate in per-core and
// per-partition shards merged at kernel boundaries, so -j1 and -jN report
// byte-identical cycles, per-kernel stats and engine counters
// (`TestParallelDifferential`, `TestParallelWorkerSweep`, and the race
// run in CI). New cross-core state lives in a sharded-then-merged or a
// canonically ordered phase, never behind a lock. `Pool` is the same
// worker pool, exported for the multi-GPU node; session.New passes its
// worker count on to `WithWorkers`.
//
// # Streams and the submission queue
//
// `Engine.Submit` queues a kernel on a stream and `Engine.SubmitCopy` a
// copy; `Engine.Drain` simulates until everything queued retires, and
// `Engine.RunGrid` is Submit on stream 0 plus Drain. Operations on one
// stream serialise; operations on different streams become concurrently
// resident grids. Submit checks only `occupancy` (a CTA that fits no SM is
// a synchronous error) and builds no resident state: the `gridRun`s are
// sized when a per-launch drain opens (`Engine.sizeShards`). Tickets come
// from an engine-owned slab and are never recycled, so a ticket held
// after its drain keeps its stats and error (`TestDrainQueueEdgeCases`).
//
// Admission, CTA placement and retirement run on the coordinator in
// submission order. The ready list restores submission order by ticket
// seq when several streams unblock in one cycle; admitting out of that
// order breaks -j identity and the golden cycles. The dispatcher visits
// resident grids in submission order, each taking the SM slots the grids
// ahead of it left over, round-robin across cores, bounded by its own
// occupancy limit (GPGPU-Sim's max_cta). A concurrent run equals the
// serialised run's final memory and per-kernel instruction counts
// (`TestStreamVsSerialDifferential`) and is byte-identical across worker
// counts (`TestStreamWorkerDeterminism`). The copy engine rides the same
// cycle loop at about 12 GB/s at the config's ClockMHz, with no knob of
// its own (`TestCopyEngineCycles`).
//
// A drain cycle costs O(active grids + active copies): a first-unfinished
// cursor over the queue, a ready list each ticket enters exactly once
// (when its same-stream predecessor retires), an active-copy list, and a
// dispatcher fill re-run only when `dispatcher.dirty` is set. Every event
// that can change placement capacity sets it — today admission and CTA
// retirement; a new capacity source that does not places CTAs late, a
// modelled-cycle change. The full-scan drain loop lives on verbatim in
// equivalence_test.go, and `TestDrainEquivalence` requires byte-identical
// cycles, per-ticket stats, engine counters and final memory from both
// loops over random kernel and copy mixes; a semantic change to the
// drain updates both loops or retires the reference on purpose.
//
// # Fast-forward
//
// Fully stalled cycles jump to the next event already recorded as an
// absolute cycle: a warp scoreboard wakeup, a copy's end cycle, or a
// replayed launch's completion on the schedule's timed list. A delay
// source visible to none of them would be skipped over, changing
// modelled cycles, not just host time. The clock moves over idle time in
// one place, `Engine.idleTo` (`Stats.addIdleBulk`, FastForwardedCycles,
// the clock). The drain loop reaches it through `Engine.jumpTo`, which
// settles every scheduler's stall ledger first; the replay batch rung and
// `Engine.AdvanceTo` jump between drains, where no ledger is open, and
// stay off that path (settling on every rung jump cost xf_hybrid about
// 8%). The rung makes the per-launch path's jumps one by one, because one
// addIdleBulk over the whole span under-charges W0_memory for a span that
// starts inside a sample bucket and crosses several.
//
// # Issue stage
//
// A warp is evaluated once after it issues (`smCore.evaluate`) and then
// only when re-armed; the scheduler picks among ready candidates. The
// rules (core.go, scoreboard.go):
//
//   - A new delay source re-arms the warp it delays: it lands as an
//     absolute cycle in the warp's scoreboard (`warpCtx.regReady`) or
//     `warpCtx.minIssueAt` before the next cycle's pick — its own
//     `smCore.issue` or `smCore.applyMem`, which evaluate parks on and
//     the wakeup heap re-arms — or it calls `schedState.rearm` when the
//     event happens (barrier release, CTA placement). A delay that does
//     neither leaves the warp parked for ever, and Drain then fails the
//     batch as deadlocked (`TestDrainQueueEdgeCases`, `DropWakeups`).
//   - A wake time computed at evaluation is final: only the warp's own
//     issue and applyMem write its regReady and minIssueAt, and never
//     after the cycle it issued in.
//   - Candidate order and `schedState.rr` are modelled policy (loose
//     round-robin): warp i of a CTA goes to scheduler i mod S in placement
//     order, the pick is the first ready candidate at or after rr, rr then
//     points past it, rr is 0 at the start of a drain, and a retiring CTA
//     is compacted out in slot order with rr folded by a modulo.
//   - Stall kind precedence for a slot nobody takes: no live warp is idle,
//     any warp at a barrier is barrier, any parked on a source register is
//     data hazard, any parked on minIssueAt (atomic turnaround,
//     shared-store port) is memory; a warp parked on minIssueAt whose
//     sources are still busy changes class at minIssueAt.
//   - A scheduler's stall kind is constant while nothing is due. Due is a
//     re-armed warp, a ready warp, or a wakeup at or before now, and only
//     a due scheduler is stepped. Each keeps the kind its state implied
//     after its last step and the first uncharged slot, and
//     `schedState.settle` charges the interval with one `Stats.addStall`,
//     split at bucket edges (`TestAddStall`). It settles at exactly: its
//     next step; every in-drain fast-forward (`Engine.jumpTo`);
//     `Engine.mergeShards`; and an abort, which charges what the per-cycle
//     walk had charged up to the scheduler that failed
//     (`Engine.settleStepped`).
//   - A new delay source also makes its core due, through `smCore.hot`
//     (set by `smCore.addCTA`, and by the end of `smCore.stageIssue` when
//     a scheduler holds a re-armed or ready warp) or through
//     `smCore.nextAt` (the earliest wakeup in the core's heaps, valid
//     while the core sleeps). Drain visits only such cores.
//   - All scheduler state is core-owned, touched only in stageIssue,
//     addCTA, `smCore.removeCTA` and `smCore.reset`, and at the ledger's
//     settle points, which run on the coordinator between phases.
//     smCore.reset is the one place an aborted batch is cleared.
//   - One operand walk: `exec.issueTable`, built from the ptx operand
//     lists (guard, every source including ones the handler ignores,
//     memory bases, vector elements), defines the registers an
//     instruction reads and writes for the scoreboard, then renamed to
//     the decoder's rows (`exec.Grid.RegMap`). No flag selects another
//     scheduler.
//
// `TestSchedulerInvariants` runs the reference loop, which steps every
// core every cycle, and after every cycle recomputes each resident
// warp's state from an independent copy of the operand walk: ready sets,
// parked kinds, wake cycles, counts, each sleeping scheduler's ledger
// kind and first uncharged slot (at most now+1), and each core's hot and
// nextAt. `TestDrainEquivalence` then holds the skipping drain to the
// reference on whole `Stats`. `TestIssueWorkPerInstruction` bounds the
// work: at most 3 evaluations and 2 scheduler steps per issued
// instruction. A diverged diamond models the cycles of a register file
// with a row per slot (`TestDivergentSidesKeepRows`).
//
// # CTA storage
//
// A retired CTA's register files, warp contexts and scoreboards go on a
// per-grid free list for the grid's next block; once a grid has placed
// its last block, that list and every CTA of the grid that retires after
// it go to the engine's one `exec.FreeList`, which builds the first wave
// of later kernels. The free list is coordinator-owned, holds at most
// NumSMs × MaxWarpsPerSM warps (a cap derived from the config, not a
// knob), drops the warps resident at an abort, and never holds a
// checkpoint-preloaded CTA. A detailed launch after the first allocates
// at most an eighth of a resident wave's register files
// (`TestColdLaunchAllocs`), and recycled storage reads as fresh
// (`core.TestRecycledStorageReadsFresh`).
//
// # Memory system
//
// The path below the core — coalescer and L1, partition ingress and L2
// port, L2 slice, MSHR pool, FR-FCFS DRAM channel, NoC response port —
// models contention with absolute-time reservations: each finite
// resource is a horizon, a segment starts at max(arrival, horizon), and
// `partition.drain` computes each segment's final completion cycle in
// one pass per cycle batch.
//
//   - Every delay surfaces as an absolute cycle the fast-forward sees: it
//     is folded into the completion cycle applyMem writes into the warp
//     scoreboard, or into a copy's end cycle. A partition that deferred
//     work without returning its completion time would be skipped over.
//     Writeback traffic is safe because nothing waits on it.
//   - Horizons only advance and no segment completes before it arrives
//     (`dram.TestBatchNoCompletionBeforeArrival`,
//     `TestSegmentMonotonicity`). A committed request is never re-timed;
//     FR-FCFS reorders only within the current cycle's batch, canonical
//     order in, deterministic schedule out (`dram.TestBatchDeterminism`).
//   - Partition state is partition-owned and touched only in the drain
//     phase, in canonical (core id, issue order) traversal.
//   - The sector rule: segments are min(L1 line, L2 line) bytes
//     (`Config.sectorBytes`), so no segment straddles an L2 line and
//     `Engine.partOf` routes each to exactly one partition (`TestSectorRule`,
//     `TestSectorRuleSegmentCounts`).
//   - A segment the memory stage cannot time (an L2 merge with no parent
//     miss in its batch, opened by the `OrphanL2Miss` seam) fails the
//     batch like a faulting kernel and leaves the engine reusable
//     (`TestDrainQueueEdgeCases`).
//   - The contention knobs (`Config.L2IngressCycles`,
//     `Config.L2PortCycles`, `Config.L2RespCycles`, and the DRAM queue
//     depth, reorder window and starvation limit) may be 0 or 1 to
//     isolate a contention source; the shipped configs enable all of them
//     and the goldens pin the combination.
//   - The address map has a period: L1 and L2 sets × line bytes, partOf's
//     line interleave over the partitions, and the DRAM bank and row
//     bits. Shifting every device address by it changes nothing, and
//     shifting by less changes timing only (`TestLayoutShift`).
//
// # Counter ledger
//
// Statistics are one ledger, kept per kernel (stats.go, partition.go,
// engine.go):
//
//   - One increment site per counter. A `cudart.MemCounters` field is
//     incremented on one line of partition.drain, into
//     `partition.perKernel` at the issuing grid's dense run id; warp
//     instructions on one line of smCore.issue, into `smCore.runInstrs`.
//     There is no scalar mirror and no second count: a serviced segment
//     is an L2 access and an L2 miss a DRAM access, so neither has a
//     field of its own. `partition.l2Writebacks` is the one partition
//     counter outside the record (replay leaves it flat).
//   - Totals are sums of per-kernel records, folded at retirement.
//     `Engine.foldRun` takes a record out of the shards and calls
//     `Stats.add`; `Ticket.record` assigns it to the ticket, which keeps
//     it once, and `Ticket.Stats` is the one conversion to
//     `cudart.KernelStats`, which embeds the record whole. What an
//     aborted batch left unretired is folded the same way onto its
//     failed tickets in `Engine.abortBatch`, so
//     `Engine.mergeShards` folds only what is not per kernel: the cores'
//     own counters and series (`Stats.merge` lists exactly those) and the
//     writeback count. Folding is shared with the reference drain loop
//     (`Engine.finishRun`), so the reference cannot diverge.
//   - Replay folds the memoized subset through the same helpers:
//     `Engine.retireReplayed` calls Ticket.record and Stats.add with the
//     entry's record. A counter that must be replayed goes in the record;
//     one that must not stays out, and stays flat across a replayed window.
//   - A core-side per-kernel counter has no engine total: `smCore.runSegs`
//     (the hardware oracle's `exec.StepInfo.Segments`) is counted next to
//     runInstrs, taken out by foldRun, memoized in `replayEntry` and
//     kept by Ticket.record and read by Ticket.Stats into
//     `cudart.KernelStats.OracleSegments`;
//     Stats has no field for it. That field is a uint32 in padding the
//     record already had: a uint64 grew the launch log by 8 bytes a record
//     and cost xf_hybrid about 4.5% host time and 5% peak memory.
//   - Adding a per-kernel counter is one `cudart.MemCounters` field, one
//     line in `cudart.MemCounters.Add` and one increment in
//     partition.drain; Ticket.Stats needs no line. The field grows every
//     launch-log record by 8 bytes (KernelStats embeds the record, and it
//     is the launch log's and bench's), so add one reluctantly.
//     Summation, replay memoization and the ledger test follow unedited.
//
// `TestPerKernelMemCounters` compares the records the tickets report
// through Ticket.Stats, summed, with `Engine.Stats` as whole
// `cudart.MemCounters` structs plus the instruction count, over
// concurrent grids with an async copy, a warm per-launch replay
// iteration, a batch-rung iteration and an aborted batch; its
// `TestPerKernelMemCounters/mem_segments_every_retirement` row reads one
// signature's OracleSegments through detailed, per-launch and batch-rung
// retirement at -j1 and -j2.
//
// # Hybrid replay
//
// With `Config.ReplayEnabled` an engine memoizes each launch's detailed
// outcome under a replay signature (engine config with the replay knobs
// masked, kernel code hash, dims, dynamic shared bytes and the raw
// parameter bytes, device pointers included) and retires repeats from the
// cache (replay.go; the functional memo is exec's `exec.GridMemo`).
//
//   - All replay decisions happen on the coordinator (signature at
//     submit, lookup at admission, capture and apply at retirement), so
//     worker count cannot change hits, misses or memo state
//     (`TestReplayMixedEquivalence`).
//   - Entries recorded during a drain commit only when the batch retires
//     successfully, so a launch replays only an entry from an earlier
//     Drain batch: the first drain is byte-identical to detailed mode
//     (`TestReplayColdCacheByteIdentical`) and an aborted batch caches
//     nothing.
//   - Replay memoizes timing, not semantics: a hit's functional effect
//     still executes (interpretation, or `exec.GridMemo.Apply` after its
//     read-set validates against memory byte for byte), so final memory
//     is exact and only cycles are approximate (`TestReplayWarmCache` pins
//     a 4x warm-cache tolerance; `Config.ReplayResampleEvery` measures the
//     drift). `exec.Machine.CaptureGrid` marks texture-fetching kernels
//     unmemoizable.
//   - The batch rung (`Engine.replayBatch`) is a third way to serve the
//     same hits, never a different answer. It retires a whole drain batch
//     from one composed memo only when the batch is a chain the cache
//     composed: at least two tickets, kernel launches only (no copy, no
//     resume), the same ordered signatures on the same stream structure
//     (streams numbered by first appearance, since raw ids never repeat).
//     Composition order is retirement order (`exec.ComposeMemos` over the
//     members' memos in the order `Engine.finishReplay` applied them). A
//     chain is valid only while every entry it points at is current:
//     `replayCache.commit` marks a replaced entry stale and the chain
//     remembers each entry's memo, so a re-sample or re-capture anywhere
//     invalidates it. No entry may be due for a re-sample (hits are
//     counted first and rolled back when the rung stands aside). Any
//     failure sends that batch down the per-launch path, and a composed
//     memo that fails validation drops its chain, which must then re-earn
//     its two all-applied sightings. The rung bumps every
//     counter by what the per-launch path would (retireReplayed is
//     shared), keeps the launch log one record per launch, and moves the
//     clock through the same retirement cycles; `Stats.ReplayBatchHits` is
//     its only new observable. `TestReplayBatchEquivalence` runs it
//     against the per-launch path, switched off through export_test.go,
//     at -j1 and -j4, and `TestWarmBatchWork` bounds its work: Drain
//     allocates nothing on a warm batch. A warm launch allocates at most
//     5 objects end to end (`core.TestWarmLaunchAllocs`).
package timing
