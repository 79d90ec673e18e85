// Package session owns the one policy every workload driver shares:
// which device allocations are iteration-transient, when they are freed,
// and how the first-fit allocator is primed. A Session is one simulated
// GPU — a torch.Device wired to a timing.Engine — plus the set of
// allocations that persist across iterations (weights, gradient buffers,
// resident KV caches). Everything else allocated during an iteration is
// freed at its boundary, so the allocator re-issues byte-identical
// addresses, every re-launch builds an identical parameter image, and
// the replay cache hits. It also bounds the simulated memory a long run
// touches.
//
// core, serve and multigpu build their drivers on it; nothing else in
// the repo snapshots LiveAllocations. The policy is pinned table-driven:
// the live set returns to the pinned set at every boundary, steady-state
// iterations see identical addresses (`TestSessionIterations`), kept
// buffers survive until dropped (`TestSessionKeepDrop`), and only a primed
// arena (`Session.PrimeArena`) makes iteration 0 place buffers like
// iteration 1 for a body that frees mid-iteration (`TestIterate`).
package session

import (
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/timing"
	"repro/internal/torch"
)

// arenaBytes is the span PrimeArena reserves and releases: larger than
// any driver's per-iteration working set (pages materialise on write, so
// the reservation itself costs nothing).
const arenaBytes = 16 << 20

// Session is one simulated GPU and its persistent-allocation set.
type Session struct {
	Dev *torch.Device
	Eng *timing.Engine

	persist map[uint64]bool
}

// New builds a device with the kernel library registered and an engine
// of the given configuration stepping SM cores on `workers` host
// goroutines (<= 0 selects all CPUs; results are identical for any
// value), and routes the device's launches through the engine.
func New(cfg timing.Config, workers int) (*Session, error) {
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return nil, err
	}
	eng, err := timing.New(cfg, timing.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	dev.Ctx.SetRunner(timing.Runner{E: eng})
	return &Session{Dev: dev, Eng: eng, persist: map[uint64]bool{}}, nil
}

// Close releases the engine's worker goroutines. Stats, partitions and
// device memory stay readable afterwards.
func (s *Session) Close() { s.Eng.Close() }

// Pin declares everything live now (model weights, tables, gradient
// buffers) persistent: allocations made past this point are
// iteration-transient unless Keep'd.
func (s *Session) Pin() { s.Keep(s.Dev.Ctx.Alloc.LiveAllocations()) }

// Keep adds allocations to the persistent set — state that outlives the
// iteration that allocated it, such as a serving request's KV caches.
func (s *Session) Keep(addrs []uint64) {
	for _, a := range addrs {
		s.persist[a] = true
	}
}

// Drop removes allocations from the persistent set; whoever owns them
// frees them, or the next EndIteration does.
func (s *Session) Drop(addrs []uint64) {
	for _, a := range addrs {
		delete(s.persist, a)
	}
}

// PrimeArena reserves and releases one large span above everything live.
// Without it the first iteration carves the pristine bump region while
// later ones carve a recycled coalescing span; the two make different
// first-fit placements around mid-iteration frees, and the shifted
// addresses change launch signatures — replay would only reach steady
// state one iteration late. Training frees mid-step, so the training
// drivers call it before Pin.
func (s *Session) PrimeArena() error {
	arena, err := s.Dev.Ctx.Malloc(arenaBytes)
	if err != nil {
		return err
	}
	return s.Dev.Ctx.Free(arena)
}

// EndIteration frees every live allocation outside the persistent set.
func (s *Session) EndIteration() error {
	for _, a := range s.Dev.Ctx.Alloc.LiveAllocations() {
		if !s.persist[a] {
			if err := s.Dev.Ctx.Free(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// Iterations is what Iterate measured.
type Iterations struct {
	Iters           int
	FirstIterCycles uint64 // modelled cycles of the first (never replayed) iteration
	TotalCycles     uint64 // modelled cycles of all iterations
	Stats           timing.Stats
	Log             []cudart.KernelStats // every launch, in launch order
}

// Launches returns the number of kernel launches across all iterations.
func (it *Iterations) Launches() int { return len(it.Log) }

// Iterate runs body iters times (at least once), ending each iteration
// with EndIteration, and snapshots the engine counters and the kernel
// log at the end.
func (s *Session) Iterate(iters int, body func(it int) error) (Iterations, error) {
	if iters < 1 {
		iters = 1
	}
	res := Iterations{Iters: iters}
	start := s.Eng.Cycle()
	for it := 0; it < iters; it++ {
		if err := body(it); err != nil {
			return res, err
		}
		if it == 0 {
			res.FirstIterCycles = s.Eng.Cycle() - start
		}
		if err := s.EndIteration(); err != nil {
			return res, err
		}
	}
	res.TotalCycles = s.Eng.Cycle() - start
	res.Stats = *s.Eng.Stats()
	res.Log = s.Dev.Ctx.KernelStatsLog()
	return res, nil
}
