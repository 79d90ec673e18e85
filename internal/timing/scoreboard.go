package timing

import (
	"math/bits"

	"repro/internal/exec"
)

// warpState is where a resident warp stands with its scheduler. A warp is
// in exactly one state, and the scheduler keeps a count of each.
type warpState uint8

const (
	warpDead      warpState = iota // retired; its CTA has not left the core yet
	warpRearmed                    // issued, released or placed since it was last evaluated
	warpReady                      // in the ready set: may issue at any pick
	warpAtBarrier                  // waiting for its CTA's barrier to release
	warpOnData                     // parked until its latest busy source register is readable
	warpOnIssue                    // parked until minIssueAt (structural: atomics, port serialization)
	numWarpStates
)

// warpCtx is the per-warp pipeline state: the warp's functional state plus
// the scoreboard tracking when each register row becomes readable and when
// the warp may issue again after a structural stall. A warpCtx is owned by
// exactly one SM core (and within it, one scheduler), so it is never
// touched by two workers concurrently.
type warpCtx struct {
	slot       *ctaSlot
	warp       *exec.Warp
	issue      exec.IssueTable // the kernel's per-PC table
	runID      int             // dense per-drain id of the owning grid (stat attribution)
	regReady   []uint64        // scoreboard: per register row, cycle it becomes readable
	minIssueAt uint64          // structural stall (atomics, retry delays)

	// Scheduler bookkeeping, owned by the warp's schedState.
	state warpState
	pos   int    // index in the scheduler's candidate list
	pc    int    // warpReady: the instruction it issues next, -1 for the step that retires it
	wake  uint64 // warpOnData/warpOnIssue: absolute cycle of its re-evaluation
}

// markDst sets destination registers busy until `ready`.
func (w *warpCtx) markDst(dst []int32, ready uint64) {
	for _, r := range dst {
		w.regReady[r] = ready
	}
}

// schedState is one warp scheduler: its candidate list (maintained
// incrementally as CTAs arrive and retire), the round-robin pointer into
// it, and the event-driven view of those candidates — which are ready,
// which wait to be evaluated, and when each parked one wakes.
//
// Invariant for anything that delays a warp: the delay must re-arm the
// warp it delays — as an absolute wake cycle in its scoreboard or
// minIssueAt (evaluate parks on those), or by calling rearm when the
// event happens (barrier release, CTA placement). A warp nobody re-arms
// never issues again.
type schedState struct {
	// cands order and the rr arithmetic are modelled policy (loose
	// round-robin): a pick is the first ready candidate at or after rr,
	// and rr then points past it. removeCTA compacts cands in place and
	// folds rr with a modulo, without following the warp it pointed at.
	cands []*warpCtx
	rr    int

	ready   []uint64   // bit i set: cands[i] is warpReady
	rearmed []*warpCtx // the warpRearmed candidates, evaluated at the next pick
	wakeQ   []*warpCtx // the parked candidates, a min-heap on wake

	n [numWarpStates]int // candidates per state

	// The stall ledger. kind is the stall kind the scheduler's state
	// implied after its last step; from is the first slot not yet
	// charged. Until the scheduler is due again nothing can change its
	// state, so every slot from `from` on stalls with kind, and settle
	// charges them in one span.
	kind stallKind
	from uint64

	dropWake bool // test seam (export_test.go): the next park loses its wakeup
}

// due reports whether the scheduler has work at cycle now: a re-armed
// warp to evaluate, a ready warp to issue, or a wakeup that fell due. A
// scheduler that is not due is not stepped.
func (sc *schedState) due(now uint64) bool {
	return sc.n[warpRearmed]+sc.n[warpReady] > 0 || len(sc.wakeQ) > 0 && sc.wakeQ[0].wake <= now
}

// settle charges the quiet interval [from, to) to kind.
func (sc *schedState) settle(s *Stats, to uint64) {
	if to > sc.from {
		s.addStall(sc.kind, sc.from, to-sc.from)
		sc.from = to
	}
}

// add appends a newly placed warp to the candidates, re-armed.
func (sc *schedState) add(w *warpCtx) {
	w.pos = len(sc.cands)
	sc.cands = append(sc.cands, w)
	if len(sc.ready)*64 < len(sc.cands) {
		sc.ready = append(sc.ready, 0)
	}
	w.state = warpRearmed
	sc.n[warpRearmed]++
	sc.rearmed = append(sc.rearmed, w)
}

// remove compacts a retired CTA's warps — all dead by then — out of the
// candidate list in place, preserving relative order (no reallocation).
func (sc *schedState) remove(slot *ctaSlot) {
	clear(sc.ready)
	keep := sc.cands[:0]
	for _, w := range sc.cands {
		if w.slot == slot {
			sc.n[w.state]--
			continue
		}
		w.pos = len(keep)
		if w.state == warpReady {
			sc.ready[w.pos>>6] |= 1 << (w.pos & 63)
		}
		keep = append(keep, w)
	}
	// clear the tail so retired warp contexts can be collected
	clear(sc.cands[len(keep):])
	sc.cands = keep
	if len(keep) > 0 {
		sc.rr %= len(keep)
	} else {
		sc.rr = 0
	}
}

func (sc *schedState) reset() {
	clear(sc.cands)
	clear(sc.rearmed)
	clear(sc.wakeQ)
	clear(sc.ready)
	*sc = schedState{cands: sc.cands[:0], ready: sc.ready, rearmed: sc.rearmed[:0], wakeQ: sc.wakeQ[:0]}
}

// move changes a candidate's state, keeping the ready set and the counts.
func (sc *schedState) move(w *warpCtx, to warpState) {
	if w.state == warpReady {
		sc.ready[w.pos>>6] &^= 1 << (w.pos & 63)
	}
	sc.n[w.state]--
	sc.n[to]++
	w.state = to
	if to == warpReady {
		sc.ready[w.pos>>6] |= 1 << (w.pos & 63)
	}
}

// rearm queues a candidate for evaluation at the next pick.
func (sc *schedState) rearm(w *warpCtx) {
	sc.move(w, warpRearmed)
	sc.rearmed = append(sc.rearmed, w)
}

// park puts a candidate to sleep until the absolute cycle wake.
func (sc *schedState) park(w *warpCtx, as warpState, wake uint64) {
	sc.move(w, as)
	if sc.dropWake {
		sc.dropWake = false
		return
	}
	w.wake = wake
	q := append(sc.wakeQ, w)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if q[up].wake <= wake {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = w
	sc.wakeQ = q
}

// popWake removes and returns the parked candidate that wakes first.
func (sc *schedState) popWake() *warpCtx {
	q := sc.wakeQ
	top := q[0]
	last := q[len(q)-1]
	q[len(q)-1] = nil
	q = q[:len(q)-1]
	if n := len(q); n > 0 {
		i := 0
		for {
			kid := 2*i + 1
			if kid >= n {
				break
			}
			if kid+1 < n && q[kid+1].wake < q[kid].wake {
				kid++
			}
			if last.wake <= q[kid].wake {
				break
			}
			q[i] = q[kid]
			i = kid
		}
		q[i] = last
	}
	sc.wakeQ = q
	return top
}

// firstReady returns the position of the first ready candidate at or
// after rr, wrapping around, or -1 when none is ready.
func (sc *schedState) firstReady() int {
	if sc.n[warpReady] == 0 {
		return -1
	}
	word, below := sc.rr>>6, uint64(1)<<(sc.rr&63)-1
	if m := sc.ready[word] &^ below; m != 0 {
		return word<<6 + bits.TrailingZeros64(m)
	}
	for i := word + 1; i < len(sc.ready); i++ {
		if m := sc.ready[i]; m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	for i := 0; i < word; i++ {
		if m := sc.ready[i]; m != 0 {
			return i<<6 + bits.TrailingZeros64(m)
		}
	}
	return word<<6 + bits.TrailingZeros64(sc.ready[word]&below)
}

// stallKind classes an issue slot that no candidate could take. The
// precedence is the warp plots': no live warp is idle; otherwise a warp at
// a barrier outranks one parked on a data hazard, which outranks one
// parked on minIssueAt (memory).
func (sc *schedState) stallKind() stallKind {
	switch {
	case sc.n[warpAtBarrier] > 0:
		return stallBarrier
	case sc.n[warpOnData] > 0:
		return stallData
	case sc.n[warpOnIssue] > 0:
		return stallMem
	}
	return stallIdle
}
