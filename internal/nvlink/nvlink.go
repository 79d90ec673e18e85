// Package nvlink models an NVLink-style inter-device fabric for the
// multi-GPU node: directed point-to-point links with finite bandwidth
// and fixed hop latency, reserved in the same absolute-time idiom as the
// PR 5 memory hierarchy — every link is a monotonically advancing busy
// horizon, a transfer starts at max(ready, horizon), and the horizon
// never rewinds. On top of raw transfers it provides the two collective
// schedules the multi-GPU workloads use: a ring all-reduce
// (reduce-scatter + all-gather, 2(N-1) phases) and a ring all-gather
// (N-1 phases).
//
// The fabric models *timing only*. The functional side of a collective
// (summing gradients, concatenating activation shards) is performed by
// the coordinator in internal/multigpu; the fabric answers "at which
// modelled cycle does every device hold the result", and the caller
// fast-forwards each engine to that cycle. All methods are
// coordinator-only and deterministic: completion cycles depend only on
// the byte counts and the ready cycles passed in, never on host
// scheduling.
package nvlink

import "fmt"

// Config sizes the fabric's links. All devices are fully connected by
// directed links of identical bandwidth and latency (the single-hop
// NVLink topology of a DGX-style node, simplified).
type Config struct {
	// LinkBytesPerCycle is the payload bandwidth of one directed link in
	// bytes per modelled core cycle.
	LinkBytesPerCycle float64
	// LatencyCycles is the fixed per-transfer latency (serialisation +
	// hop) in modelled core cycles, charged once per transfer.
	LatencyCycles uint64
}

// DefaultConfig models a single NVLink-class link per device pair at
// the GTX 1050 core clock: ~25 GB/s per direction at 1.392 GHz is ~18
// bytes/cycle, with a ~600-cycle transfer setup latency.
func DefaultConfig() Config {
	return Config{LinkBytesPerCycle: 18, LatencyCycles: 600}
}

// Stats accumulates fabric-wide counters.
type Stats struct {
	Transfers       uint64 // point-to-point transfers reserved
	BytesMoved      uint64 // payload bytes moved over links
	OccupancyCycles uint64 // cycles links spent serialising payload
	StallCycles     uint64 // cycles transfers waited on a busy link
}

// Fabric is the modelled inter-device network of one simulated node.
type Fabric struct {
	cfg   Config
	n     int
	busy  [][]uint64 // [src][dst] directed link horizon (absolute cycle)
	stats Stats
}

// New builds a fabric connecting n devices. Config zero values fall
// back to DefaultConfig.
func New(n int, cfg Config) (*Fabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("nvlink: fabric needs at least 1 device, got %d", n)
	}
	def := DefaultConfig()
	if cfg.LinkBytesPerCycle <= 0 {
		cfg.LinkBytesPerCycle = def.LinkBytesPerCycle
	}
	if cfg.LatencyCycles == 0 {
		cfg.LatencyCycles = def.LatencyCycles
	}
	f := &Fabric{cfg: cfg, n: n, busy: make([][]uint64, n)}
	for i := range f.busy {
		f.busy[i] = make([]uint64, n)
	}
	return f, nil
}

// Stats returns the accumulated fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// payloadCycles converts a transfer size to link occupancy cycles
// (rounded up; a zero-byte transfer still costs one cycle so horizons
// always advance).
func (f *Fabric) payloadCycles(bytes int) uint64 {
	c := uint64(float64(bytes)/f.cfg.LinkBytesPerCycle + 0.999999)
	if c == 0 {
		c = 1
	}
	return c
}

// Transfer reserves the directed src→dst link for a bytes-sized
// transfer that is ready to start at `ready`, and returns the modelled
// start and completion cycles. The link horizon only advances: the
// transfer starts at max(ready, horizon) and the wait is charged to the
// stall counter.
func (f *Fabric) Transfer(src, dst, bytes int, ready uint64) (start, end uint64) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n || src == dst {
		// A malformed route is a programming error in the collective
		// schedule; model it as a zero-cost no-op rather than panicking.
		return ready, ready
	}
	start = ready
	if h := f.busy[src][dst]; h > start {
		f.stats.StallCycles += h - start
		start = h
	}
	occ := f.payloadCycles(bytes)
	end = start + f.cfg.LatencyCycles + occ
	f.busy[src][dst] = end
	f.stats.Transfers++
	f.stats.BytesMoved += uint64(bytes)
	f.stats.OccupancyCycles += occ
	return start, end
}

// maxReady returns the latest ready cycle (collectives rendezvous: no
// phase starts before every participant arrived).
func maxReady(ready []uint64) uint64 {
	var m uint64
	for _, r := range ready {
		if r > m {
			m = r
		}
	}
	return m
}

// RingAllReduce reserves a ring all-reduce of a bytes-sized buffer
// resident on every device (device i ready at ready[i]) and returns the
// cycle at which every device holds the reduced result. The schedule is
// the classic reduce-scatter + all-gather ring: 2(N-1) phases, each
// moving one ⌈bytes/N⌉ chunk per directed neighbour link, phases
// separated by a rendezvous (the chunk a device forwards in phase p+1
// is the one it received in phase p).
func (f *Fabric) RingAllReduce(bytes int, ready []uint64) uint64 {
	n := f.n
	at := maxReady(ready)
	if n <= 1 || bytes <= 0 {
		return at
	}
	chunk := (bytes + n - 1) / n
	for phase := 0; phase < 2*(n-1); phase++ {
		var phaseEnd uint64
		for src := 0; src < n; src++ {
			_, end := f.Transfer(src, (src+1)%n, chunk, at)
			if end > phaseEnd {
				phaseEnd = end
			}
		}
		at = phaseEnd
	}
	return at
}

// RingAllGather reserves a ring all-gather where every device
// contributes a shardBytes-sized shard (device i ready at ready[i]) and
// returns the cycle at which every device holds all N shards: N-1
// phases, each forwarding one full shard per directed neighbour link.
func (f *Fabric) RingAllGather(shardBytes int, ready []uint64) uint64 {
	n := f.n
	at := maxReady(ready)
	if n <= 1 || shardBytes <= 0 {
		return at
	}
	for phase := 0; phase < n-1; phase++ {
		var phaseEnd uint64
		for src := 0; src < n; src++ {
			_, end := f.Transfer(src, (src+1)%n, shardBytes, at)
			if end > phaseEnd {
				phaseEnd = end
			}
		}
		at = phaseEnd
	}
	return at
}
