package timing

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pool is a fixed-size worker pool with a cycle-barrier semantic: run()
// partitions n independent tasks across the workers and returns only when
// all of them completed. Tasks within one run() call must touch disjoint
// state (the engine guarantees this by sharding per core / per partition),
// so the pool provides parallelism without locks.
//
// A pool with workers <= 1 degrades to inline sequential execution on the
// calling goroutine; because every phase the engine parallelises is order-
// independent by construction, the inline and pooled paths produce
// identical simulation state.
type pool struct {
	workers int
	jobs    chan struct{} // one token per helper joining the run in flight
	once    sync.Once
	closed  atomic.Bool

	// The run in flight. Reused by every run call, so a run allocates
	// nothing: the caller writes f and n before it hands out tokens, and
	// a helper reads them only after taking one. Runs never overlap (one
	// caller per pool).
	f    func(int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// newPool starts workers-1 background goroutines (the calling goroutine
// participates in each run). workers <= 1 starts none.
func newPool(workers int) *pool {
	p := &pool{workers: workers}
	if workers > 1 {
		p.jobs = make(chan struct{}, workers)
		for i := 0; i < workers-1; i++ {
			go func() {
				for range p.jobs {
					p.work()
				}
			}()
		}
	}
	return p
}

// work takes tasks of the run in flight until none is left.
func (p *pool) work() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			break
		}
		p.f(i)
	}
	p.wg.Done()
}

// run executes f(0..n-1) across the pool and waits for completion.
func (p *pool) run(n int, f func(int)) {
	if p == nil || p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	k := min(p.workers, n)
	p.f, p.n = f, n
	p.next.Store(0)
	p.wg.Add(k)
	for i := 0; i < k-1; i++ {
		p.jobs <- struct{}{}
	}
	p.work() // the coordinator works too
	p.wg.Wait()
	// f usually closes over the engine, and the pool's goroutines keep
	// the pool reachable: holding f would keep the engine alive and its
	// cleanup (Engine.getPool) from ever closing them.
	p.f = nil
}

// Pool is the exported handle to the engine's fixed-size worker pool,
// for host-side parallelism layered *above* individual engines: the
// multi-GPU node steps per-device phases concurrently on one. Run
// partitions n independent tasks across the workers (the calling
// goroutine participates) and returns when all completed; tasks must
// touch disjoint state. A pool with workers <= 1 runs tasks inline on
// the caller, so results are identical for any worker count as long as
// the tasks are order-independent.
type Pool struct {
	p       *pool
	workers int
}

// NewPool builds a pool with the given worker count; workers <= 0
// selects runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{p: newPool(workers), workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Run executes f(0..n-1) across the pool and waits for completion.
func (p *Pool) Run(n int, f func(int)) { p.p.run(n, f) }

// Close stops the background workers. Idempotent.
func (p *Pool) Close() { p.p.close() }

// close stops the background workers. Idempotent (it is reached both from
// Engine.Close and from the engine's GC cleanup); a closed pool reports
// itself so the engine rebuilds one on the next launch instead of sending
// on a closed channel.
func (p *pool) close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		if p.jobs != nil {
			close(p.jobs)
		}
	})
}
