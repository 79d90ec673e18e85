package timing

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/exec"
	"repro/internal/ptx"
)

// Hybrid replay mode (Config.ReplayEnabled): the engine memoizes each
// kernel launch's detailed timing outcome under a replay signature and
// retires repeated launches after the memoized cycle count without
// dispatching a single CTA — the Accel-Sim-style answer to workloads
// that re-launch the same kernel configuration hundreds of times
// (transformer inference being the degenerate case).
//
// Replay memoizes *timing*, not semantics: a replayed launch still
// executes functionally (on the coordinator, at its modelled completion
// cycle), so final device memory is byte-identical to a detailed run —
// up to float-atomics rounding: a replayed launch interprets
// atom.global.add.f32 in functional order while the detailed model
// drains atomics in modelled order, so kernels that accumulate floats
// through atomics (the training backward pass) can differ by sub-ulp
// rounding per accumulation.
// The approximation is that a launch's duration is taken to be
// data-independent and load-independent; ReplayResampleEvery re-runs
// every Nth hit in detail to measure that drift (Stats.ReplayDriftCycles)
// and refresh the cached entry.
//
// A launch climbs three rungs. Detailed: no entry yet (or the cadence
// asks for a re-sample) — the launch is simulated and its outcome
// staged. Per-launch hit: the launch retires at its memoized cycle and
// its functional effect is captured (first hit), then validated and
// applied (later hits) — finishReplay. Batch hit: a whole drain batch
// that already retired, launch for launch, from applied memos retires as
// one unit — one validation of the batch's composed read-set, one apply
// of its composed write-set, no schedule — replayBatch. Every rung
// leaves the same cycles, statistics and memory as the one below it.

// digest is a SHA-256 of something hashed once per cache: the engine
// configuration, a kernel's code under it.
type digest [sha256.Size]byte

// replaySig identifies one kernel launch for replay purposes: the
// kernel's code hash, which covers the engine configuration fingerprint,
// the grid/block dimensions, the dynamic shared-memory size and the raw
// parameter byte image (device pointers included — two launches reading
// different buffers never share an entry). It is the launch description
// itself, comparable and usable as a map key, not a hash of it: building
// one costs a copy of the parameter bytes, where hashing the same ~130
// bytes per launch was a seventh of a warm iteration.
type replaySig struct {
	code        digest
	grid, block exec.Dim3
	sharedDyn   int
	params      string
}

// replayEntry is one memoized detailed outcome.
type replayEntry struct {
	cycles uint64      // admission-to-retirement duration
	instrs uint64      // warp instructions committed
	segs   uint64      // their StepInfo.Segments (cudart.KernelStats.OracleSegments)
	mem    MemCounters // per-kernel memory counters, incl. segment latency stats
	hits   uint64      // lookups served since recorded; drives the re-sampling cadence
	stale  bool        // commit replaced it: no longer the cache's entry for its signature

	// memo is the launch's captured functional effect (exec/memo.go),
	// recorded lazily at the first hit's execution: later hits whose
	// read-set still matches current memory apply the recorded writes
	// instead of re-interpreting the kernel. memoTried distinguishes
	// "never captured" from "capture found unmemoizable state" (nil memo
	// either way). Both are coordinator-written at hit time, so worker
	// count cannot influence them.
	memo      *exec.GridMemo
	memoTried bool
}

// replayCache is the coordinator-owned signature → entry map. It is only
// ever touched from Submit and the drain loop (both coordinator-side),
// so it needs no locking, and worker count cannot affect lookup order —
// the determinism contract survives replay.
//
// Entries recorded during a drain are staged and only committed when the
// batch retires successfully: a launch can replay only an entry recorded
// in an *earlier* Drain batch. That keeps the cold-cache invariant exact
// (the first drain of any workload is byte-identical to detailed mode,
// duplicates included) and never memoizes results from aborted batches.
type replayCache struct {
	cfgHash  digest
	codeHash map[*ptx.Kernel]digest
	entries  map[replaySig]*replayEntry
	staged   map[replaySig]replayEntry

	// The batch rung (replayBatch). chains holds what is known about
	// repeating drain batches, keyed by the first launch's signature;
	// applied lists the tickets of the batch in flight that retired from
	// an applied memo, in retirement order; streamIDs is sameLaunches'
	// scratch. noBatch switches the rung off and the two counters expose
	// its work — all three for tests (export_test.go).
	chains    map[replaySig]*replayChain
	applied   []*Ticket
	streamIDs []int
	noBatch   bool
	composes  uint64 // chains composed
	validated uint64 // read-set bytes handed to GridMemo.Matches, per launch or per batch
}

func newReplayCache(cfg *Config) *replayCache {
	rc := &replayCache{
		codeHash: make(map[*ptx.Kernel]digest),
		entries:  make(map[replaySig]*replayEntry),
		staged:   make(map[replaySig]replayEntry),
		chains:   make(map[replaySig]*replayChain),
	}
	// The fingerprint covers every timing-relevant knob (all of Config is
	// worker-invariant; worker count is deliberately absent). The replay
	// knobs themselves are masked out so toggling the re-sampling cadence
	// does not invalidate signatures.
	c := *cfg
	c.ReplayEnabled = false
	c.ReplayResampleEvery = 0
	h := sha256.New()
	fmt.Fprintf(h, "%+v", c)
	h.Sum(rc.cfgHash[:0])
	return rc
}

// kernelHash hashes the engine configuration fingerprint and a kernel's
// identity and code: entry name, parameter layout, register/shared/local
// footprint and every instruction's source text. Hashing content (not
// pointer identity) means the same PTX parsed into two modules still
// collides, as it must. Once per kernel: the cache keeps the result.
func (rc *replayCache) kernelHash(k *ptx.Kernel) digest {
	if h, ok := rc.codeHash[k]; ok {
		return h
	}
	hw := sha256.New()
	hw.Write(rc.cfgHash[:])
	fmt.Fprintf(hw, "%s|%d|%d|%d\n", k.Name, k.NumSlots, k.SharedBytes, k.LocalBytes)
	for i := range k.Params {
		p := &k.Params[i]
		fmt.Fprintf(hw, "p %s %d %d %d %d\n", p.Name, p.Type, p.Align, p.Size, p.Offset)
	}
	for i := range k.Instrs {
		hw.Write([]byte(k.Instrs[i].String()))
		hw.Write([]byte{'\n'})
	}
	var h digest
	hw.Sum(h[:0])
	rc.codeHash[k] = h
	return h
}

// signature builds a launch's replay signature.
func (rc *replayCache) signature(g *exec.Grid) replaySig {
	return replaySig{
		code: rc.kernelHash(g.Kernel),
		grid: g.GridDim, block: g.BlockDim, sharedDyn: g.SharedDyn,
		params: string(g.Params),
	}
}

// stage records a freshly measured detailed outcome; commit publishes it
// at a successful batch boundary (replacing any older entry, which it
// marks stale for the chains that point at it, and restarting its
// re-sampling cadence).
func (rc *replayCache) stage(sig replaySig, e replayEntry) { rc.staged[sig] = e }

func (rc *replayCache) commit() {
	for sig, e := range rc.staged {
		ent := e
		if old := rc.entries[sig]; old != nil {
			old.stale = true
			if ent.memo == nil && !ent.memoTried {
				// a re-sample refresh re-measures timing only; the
				// functional memo (re-validated against memory at every hit
				// anyway) carries over, as does the don't-retry verdict for
				// kernels capture found unmemoizable
				ent.memo, ent.memoTried = old.memo, old.memoTried
			}
		}
		rc.entries[sig] = &ent
	}
	clear(rc.staged)
}

// discard drops what an aborted batch staged and retired. The chains
// stay: nothing in them came from this batch.
func (rc *replayCache) discard() {
	clear(rc.staged)
	rc.dropApplied()
}

func (rc *replayCache) dropApplied() {
	clear(rc.applied)
	rc.applied = rc.applied[:0]
}

// replayChain is what the cache knows about one repeating drain batch:
// after the first sighting the launches and their streams, after the
// second the memoized retirement of the whole batch.
//
// Streams are compared by structure — numbered by first appearance in
// the batch — not by id: torch.Device.OnStreams creates and destroys its
// streams every call and cudart never reuses a stream id, so the ids of
// two iterations of the same model call never coincide, while which
// launches share a stream, the only thing the ids decide, always does.
type replayChain struct {
	launches []chainLaunch
	memo     *exec.GridMemo // the batch's composed effect; nil until the second sighting
	// wakes are the distinct retirement cycles of the batch, ascending,
	// relative to its first admission: the per-launch path's clock jumps
	// from one to the next, and the last is the batch's span.
	wakes []uint64
}

// chainLaunch is one launch of a chain. Everything below stream is set
// when the chain is composed: the entry the launch retired from and the
// memo that entry held (a chain is valid only while every entry is still
// the cache's and still holds that memo), and the launch's admission and
// retirement cycles relative to the batch's first admission — a function
// of the entries' durations and the stream structure alone.
type chainLaunch struct {
	sig        replaySig
	stream     int
	ent        *replayEntry
	memo       *exec.GridMemo
	start, end uint64
}

// sameLaunches reports whether the queued batch is the chain's: kernel
// launches only, none of them a resume, the same signatures in the same
// order on the same stream structure.
func (ch *replayChain) sameLaunches(rc *replayCache, queue []*Ticket) bool {
	if len(queue) != len(ch.launches) {
		return false
	}
	rc.streamIDs = rc.streamIDs[:0]
	for i, t := range queue {
		l := &ch.launches[i]
		if !t.hasSig || rc.denseStream(t.stream) != l.stream || t.sig != l.sig {
			return false
		}
	}
	return true
}

// denseStream numbers the streams of one batch by first appearance.
func (rc *replayCache) denseStream(id int) int {
	for i, s := range rc.streamIDs {
		if s == id {
			return i
		}
	}
	rc.streamIDs = append(rc.streamIDs, id)
	return len(rc.streamIDs) - 1
}

// noteBatch runs when a batch first admitted at cycle start has retired
// on the per-launch path. If every ticket of it — at least two — was a
// replay hit whose memo applied, the batch is a sighting of a chain. The
// first sighting of a launch sequence stores only the sequence, an O(n)
// copy, so a batch that never repeats costs no more; a different sequence
// under the same first launch replaces it, so two alternating sequences
// never get further. The second consecutive sighting composes the chain
// from this batch's retirements: the members' memos in retirement order,
// which is the order their effects reached memory.
func (rc *replayCache) noteBatch(queue []*Ticket, start uint64) {
	applied := rc.applied
	defer rc.dropApplied()
	if rc.noBatch || len(queue) < 2 || len(applied) != len(queue) {
		return
	}
	key := queue[0].sig
	ch := rc.chains[key]
	if ch == nil || !ch.sameLaunches(rc, queue) {
		ch = &replayChain{launches: make([]chainLaunch, len(queue))}
		rc.streamIDs = rc.streamIDs[:0]
		for i, t := range queue {
			ch.launches[i] = chainLaunch{sig: t.sig, stream: rc.denseStream(t.stream)}
		}
		rc.chains[key] = ch
		return
	}
	memos := make([]*exec.GridMemo, len(applied))
	ch.wakes = ch.wakes[:0]
	at := uint64(0)
	for i, t := range applied {
		memos[i] = t.replayEnt.memo
		if w := t.endCycle - start; w > at {
			ch.wakes = append(ch.wakes, w)
			at = w
		}
	}
	ch.memo = exec.ComposeMemos(memos)
	for i, t := range queue {
		l := &ch.launches[i]
		l.ent, l.memo = t.replayEnt, t.replayEnt.memo
		l.start, l.end = t.startCycle-start, t.endCycle-start
	}
	rc.composes++
}

// replayBatch is the top rung: when the queued batch is a composed chain
// whose entries are all current and none due a re-sample, and the
// chain's composed read-set still matches memory, the whole batch
// retires here — the composed write-set applied once, every ticket
// filled from its entry and its memoized cycles, every counter bumped by
// what the per-launch path would have added, the clock advanced over the
// span — and Drain returns without building a schedule or touching a
// core. Anything else returns false with nothing changed and the batch
// takes the per-launch path, which stays the reference. Coordinator-only,
// like every replay decision.
func (e *Engine) replayBatch() bool {
	rc := e.replay
	if rc == nil || rc.noBatch || len(e.queue) < 2 || !e.queue[0].hasSig {
		return false
	}
	key := e.queue[0].sig
	ch := rc.chains[key]
	if ch == nil || ch.memo == nil || !ch.sameLaunches(rc, e.queue) {
		return false
	}
	for i := range ch.launches {
		if l := &ch.launches[i]; l.ent.stale || l.ent.memo != l.memo {
			// re-measured or re-captured since: the chain re-earns its two
			// sightings
			delete(rc.chains, key)
			return false
		}
	}
	// The cadence is per entry, so count the hits first; an entry the
	// batch launches twice advances twice.
	every, due := uint64(e.cfg.ReplayResampleEvery), false
	for i := range ch.launches {
		ent := ch.launches[i].ent
		ent.hits++
		due = due || every > 0 && ent.hits%every == 0
	}
	matched := false
	if !due {
		rc.validated += uint64(ch.memo.ReadBytes())
		if matched = ch.memo.Matches(e.machine); !matched {
			// the batch's inputs moved: the chain goes with them
			delete(rc.chains, key)
		}
	}
	if !matched {
		for i := range ch.launches {
			ch.launches[i].ent.hits--
		}
		return false
	}
	ch.memo.Apply(e.machine)
	start := e.cycle
	for i, t := range e.queue {
		l := &ch.launches[i]
		t.startCycle, t.endCycle = start+l.start, start+l.end
		e.stats.ReplayHits++
		e.stats.ReplayMemoApplied++
		e.retireReplayed(t, l.ent)
	}
	e.stats.ReplayBatchHits++
	// The clock makes the per-launch path's jumps, retirement to
	// retirement, not one over the span: addIdleBulk steps by the sample
	// interval instead of to the next bucket edge, so a span that starts
	// inside a bucket and crosses several is charged less W0_memory than
	// its parts are, and golden_stats.json pins what the parts charge.
	for _, w := range ch.wakes {
		e.idleTo(start + w)
	}
	return true
}
