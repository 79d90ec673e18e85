package multigpu

import (
	"fmt"
	"runtime"

	"repro/internal/nvlink"
	"repro/internal/session"
	"repro/internal/timing"
	"repro/internal/torch"
)

// Config sizes a node.
type Config struct {
	// Devices is the number of simulated GPUs (>= 1).
	Devices int
	// Workers is the host worker-goroutine count stepping device phases
	// (the -j flag): 0 means 1, negative means all host CPUs. It only
	// affects wall-clock, never simulation results.
	Workers int
	// Replay enables kernel-level replay memoization on every engine.
	Replay bool
	// ReplayResampleEvery re-details every Nth replay hit (0 = never).
	ReplayResampleEvery int
}

// Node is one simulated multi-GPU machine.
type Node struct {
	Sessions []*session.Session
	Devs     []*torch.Device // Sessions[r].Dev by rank; the benchmark pins this field
	Fabric   *nvlink.Fabric
	pool     *timing.Pool
	workers  int
}

// NewNode builds cfg.Devices identical GTX 1050 devices, each with its
// own single-worker engine (host parallelism lives across devices, not
// within one), connected by a fresh fabric of nvlink.DefaultConfig links.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("multigpu: node needs at least 1 device, got %d", cfg.Devices)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	} else if workers < 0 {
		workers = runtime.NumCPU()
	}
	fab, err := nvlink.New(cfg.Devices, nvlink.Config{})
	if err != nil {
		return nil, err
	}
	n := &Node{Fabric: fab, workers: workers, pool: timing.NewPool(workers)}
	for i := 0; i < cfg.Devices; i++ {
		tcfg := timing.GTX1050()
		tcfg.ReplayEnabled = cfg.Replay
		tcfg.ReplayResampleEvery = cfg.ReplayResampleEvery
		s, err := session.New(tcfg, 1)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.Sessions = append(n.Sessions, s)
		n.Devs = append(n.Devs, s.Dev)
	}
	return n, nil
}

// Close releases the node's sessions and pool.
func (n *Node) Close() {
	for _, s := range n.Sessions {
		s.Close()
	}
	n.pool.Close()
}

// World returns the device count.
func (n *Node) World() int { return len(n.Devs) }

// Workers returns the host worker count.
func (n *Node) Workers() int { return n.workers }

// Cycle returns the node clock: the furthest-ahead device cycle (at
// collective boundaries all devices agree).
func (n *Node) Cycle() uint64 {
	var m uint64
	for _, s := range n.Sessions {
		if c := s.Eng.Cycle(); c > m {
			m = c
		}
	}
	return m
}

// Parallel runs f(rank) for every device, stepped concurrently on the
// node's worker pool. f must touch only rank-local state. Errors are
// collected per rank and the first (in rank order) is returned, so
// failure reporting is deterministic for any worker count.
func (n *Node) Parallel(f func(rank int) error) error {
	errs := make([]error, len(n.Devs))
	n.pool.Run(len(n.Devs), func(i int) { errs[i] = f(i) })
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("multigpu: device %d: %w", r, err)
		}
	}
	return nil
}

// readF32 reads a tensor's payload straight from device memory (no
// modelled transfer — collectives are priced on the fabric instead).
func readF32(dev *torch.Device, t *torch.Tensor) []float32 {
	out := make([]float32, t.Count())
	dev.Ctx.Mem.ReadF32(t.Ptr, out)
	return out
}

// advanceAll fast-forwards every engine to the collective completion
// cycle.
func (n *Node) advanceAll(cycle uint64) error {
	for r, s := range n.Sessions {
		if err := s.Eng.AdvanceTo(cycle); err != nil {
			return fmt.Errorf("multigpu: device %d: %w", r, err)
		}
	}
	return nil
}

// readyCycles synchronises every rank, so that a collective reads memory
// and clocks with all queued work retired, then snapshots every engine's
// clock (collective readiness). The first error in rank order is
// returned.
func (n *Node) readyCycles() ([]uint64, error) {
	if err := n.Parallel(func(r int) error { return n.Devs[r].Ctx.DeviceSynchronize() }); err != nil {
		return nil, err
	}
	ready := make([]uint64, len(n.Sessions))
	for i, s := range n.Sessions {
		ready[i] = s.Eng.Cycle()
	}
	return ready, nil
}

// AllReduce sums the per-rank tensor lists element-wise — in rank
// order, the same summation order the CPU mirror uses — and writes the
// sum back to every rank. The timing side is one fused ring all-reduce
// of the total byte count; every engine is advanced to its completion
// cycle. Every rank must pass as many tensors as rank 0, tensors[r][i]
// with rank 0's element count; otherwise the call fails before it
// synchronises, charges the fabric or writes a rank.
func (n *Node) AllReduce(tensors [][]*torch.Tensor) error {
	world := n.World()
	if len(tensors) != world {
		return fmt.Errorf("multigpu: AllReduce got %d ranks, node has %d", len(tensors), world)
	}
	for r, list := range tensors {
		if len(list) != len(tensors[0]) {
			return fmt.Errorf("multigpu: AllReduce rank %d has %d tensors, rank 0 has %d", r, len(list), len(tensors[0]))
		}
		for p, t := range list {
			if want := tensors[0][p].Count(); t.Count() != want {
				return fmt.Errorf("multigpu: AllReduce tensor %d: rank %d has %d elements, rank 0 has %d",
					p, r, t.Count(), want)
			}
		}
	}
	total := 0
	for _, t := range tensors[0] {
		total += 4 * t.Count()
	}
	ready, err := n.readyCycles()
	if err != nil {
		return err
	}
	end := n.Fabric.RingAllReduce(total, ready)
	for p := range tensors[0] {
		sum := readF32(n.Devs[0], tensors[0][p])
		for r := 1; r < world; r++ {
			for j, v := range readF32(n.Devs[r], tensors[r][p]) {
				sum[j] += v
			}
		}
		for r := 0; r < world; r++ {
			n.Devs[r].Ctx.Mem.WriteF32(tensors[r][p].Ptr, sum)
		}
	}
	return n.advanceAll(end)
}

// AllGatherCols concatenates equal-width column shards row-wise: rank
// r's [rows, cols] shard becomes columns [r*cols, (r+1)*cols) of every
// rank's [rows, world*cols] destination. Pure byte movement — the
// gathered activation is bitwise the concatenation of the shards. The
// timing side is one ring all-gather of the shard size. Every shard must
// have rank 0's shape and every destination rows*world*cols elements;
// otherwise the call fails before it synchronises, charges the fabric or
// writes a rank.
func (n *Node) AllGatherCols(shards, dsts []*torch.Tensor) error {
	world := n.World()
	if len(shards) != world || len(dsts) != world {
		return fmt.Errorf("multigpu: AllGatherCols got %d/%d ranks, node has %d", len(shards), len(dsts), world)
	}
	rows, cols := shards[0].Dim(0), shards[0].Dim(1)
	for r := 0; r < world; r++ {
		if shards[r].Dim(0) != rows || shards[r].Dim(1) != cols {
			return fmt.Errorf("multigpu: AllGatherCols shard %d is [%d,%d], want [%d,%d]",
				r, shards[r].Dim(0), shards[r].Dim(1), rows, cols)
		}
		if dsts[r].Count() != rows*world*cols {
			return fmt.Errorf("multigpu: AllGatherCols dst %d has %d elements, want %d",
				r, dsts[r].Count(), rows*world*cols)
		}
	}
	ready, err := n.readyCycles()
	if err != nil {
		return err
	}
	end := n.Fabric.RingAllGather(4*rows*cols, ready)
	parts := make([][]byte, world)
	for r := 0; r < world; r++ {
		buf := make([]byte, 4*rows*cols)
		n.Devs[r].Ctx.Mem.Read(shards[r].Ptr, buf)
		parts[r] = buf
	}
	full := make([]byte, 4*rows*world*cols)
	for r := 0; r < world; r++ {
		for i := 0; i < rows; i++ {
			copy(full[4*(i*world*cols+r*cols):], parts[r][4*i*cols:4*(i+1)*cols])
		}
	}
	for r := 0; r < world; r++ {
		n.Devs[r].Ctx.Mem.Write(dsts[r].Ptr, full)
	}
	return n.advanceAll(end)
}
