package timing

import (
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/exec"
)

// Config describes the modelled GPU.
type Config struct {
	Name            string
	NumSMs          int
	SchedulersPerSM int
	MaxCTAsPerSM    int
	MaxWarpsPerSM   int
	SharedMemPerSM  int

	// latencies in core cycles
	ALULat    int
	SFULat    int
	IntDivLat int
	SharedLat int
	L1HitLat  int
	L2Lat     int
	NoCLat    int

	L1            cache.Config
	L2            cache.Config // per partition slice
	NumPartitions int
	DRAM          dram.Config

	// Memory-hierarchy contention knobs. Each is an absolute-time
	// resource occupancy in core cycles per segment; 0 disables that
	// resource (infinite bandwidth, the pre-contention model).
	L2IngressCycles int // partition ingress slot held per arriving segment
	L2PortCycles    int // L2 tag/data port held per access
	L2RespCycles    int // NoC response port held per returning segment

	// SampleInterval is the AerialVision bucket width in cycles.
	SampleInterval int
	ClockMHz       float64 // also sets the copy engine's bytes per cycle

	// ReplayEnabled turns on hybrid replay mode (see replay.go): every
	// launch's detailed timing outcome is memoized under a replay
	// signature, and a launch whose signature was recorded in an earlier
	// Drain batch retires after the memoized cycle count without CTA
	// dispatch. Functional memory effects still execute, so results stay
	// byte-identical; only the timing of repeated launches is sampled.
	ReplayEnabled bool
	// ReplayResampleEvery re-runs every Nth cache hit of an entry in
	// detail, measuring drift against the memoized cycles and refreshing
	// the entry. 0 never re-samples.
	ReplayResampleEvery int
}

// GTX1050 approximates the GeForce GTX 1050 (GP107) used for the paper's
// correlation study (§IV): 5 SMs, 128-bit GDDR5 (4 x 32-bit channels).
func GTX1050() Config {
	return Config{
		Name: "GTX1050", NumSMs: 5, SchedulersPerSM: 4,
		MaxCTAsPerSM: 8, MaxWarpsPerSM: 32, SharedMemPerSM: 64 << 10,
		ALULat: 6, SFULat: 16, IntDivLat: 20, SharedLat: 24,
		L1HitLat: 28, L2Lat: 120, NoCLat: 8,
		L1:              cache.Config{SizeBytes: 48 << 10, LineBytes: 128, Assoc: 6, MSHRs: 32},
		L2:              cache.Config{SizeBytes: 256 << 10, LineBytes: 128, Assoc: 8, MSHRs: 64, WriteBack: true},
		NumPartitions:   4,
		DRAM:            dram.DefaultConfig(),
		L2IngressCycles: 1,
		L2PortCycles:    1,
		L2RespCycles:    2,
		SampleInterval:  500,
		ClockMHz:        1392,
	}
}

// GTX1080Ti approximates the GeForce GTX 1080 Ti (GP102) the paper models
// for the conv_sample case studies (§V-A): 28 SMs, 352-bit bus (11
// partitions).
func GTX1080Ti() Config {
	return Config{
		Name: "GTX1080Ti", NumSMs: 28, SchedulersPerSM: 4,
		MaxCTAsPerSM: 16, MaxWarpsPerSM: 64, SharedMemPerSM: 96 << 10,
		ALULat: 6, SFULat: 16, IntDivLat: 20, SharedLat: 24,
		L1HitLat: 28, L2Lat: 120, NoCLat: 10,
		L1:              cache.Config{SizeBytes: 48 << 10, LineBytes: 128, Assoc: 6, MSHRs: 32},
		L2:              cache.Config{SizeBytes: 256 << 10, LineBytes: 128, Assoc: 8, MSHRs: 64, WriteBack: true},
		NumPartitions:   11,
		DRAM:            dram.DefaultConfig(),
		L2IngressCycles: 1,
		L2PortCycles:    1,
		L2RespCycles:    2,
		SampleInterval:  500,
		ClockMHz:        1481,
	}
}

// sectorBytes is the memory-system sector size: the granularity the
// coalescer splits warp accesses into and the largest unit that is
// guaranteed to live inside one L2 line (and therefore one partition).
// The explicit rule is min(L1 line, L2 line): sectors then never straddle
// an L2 line, so Engine.partOf's L2-line interleaving routes every sector
// to exactly one partition regardless of how the two line sizes relate.
// With the shipped configs (both 128B) this equals the old L1-line split.
func (c *Config) sectorBytes() uint64 {
	s := c.L1.LineBytes
	if c.L2.LineBytes < s {
		s = c.L2.LineBytes
	}
	return uint64(s)
}

// latency maps a non-memory instruction's functional-unit class to cycles.
func (c *Config) latency(class exec.LatencyClass) int {
	switch class {
	case exec.LatSFU:
		return c.SFULat
	case exec.LatIntDiv:
		return c.IntDivLat
	}
	return c.ALULat
}
