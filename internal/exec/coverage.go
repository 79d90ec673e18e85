package exec

import "repro/internal/ptx"

// CovKey identifies one instruction-implementation path: opcode plus type
// specifier. The paper's "differential coverage analysis" (§III-D) compares
// which implementation paths a failing workload exercises that the passing
// regression suite does not; opcode+type granularity is exactly the level
// at which GPGPU-Sim's rem and bfe bugs hid (wrong only for some types).
type CovKey struct {
	Op ptx.Op
	T  ptx.Type
}

// Coverage counts executed instructions per implementation path, in a
// dense table indexed by covIndex so that counting a warp instruction is
// one array increment.
type Coverage struct {
	counts [ptx.OpLimit * ptx.TypeLimit]uint64
	total  uint64
}

// covIndex maps a path to its slot. Out-of-range values (only reachable
// from hand-built instructions) count as the invalid opcode.
func covIndex(op ptx.Op, t ptx.Type) uint16 {
	if int(op) >= ptx.OpLimit || int(t) >= ptx.TypeLimit {
		return 0
	}
	return uint16(int(op)*ptx.TypeLimit + int(t))
}

// note records one executed warp instruction by its covIndex slot.
func (c *Coverage) note(idx uint16) {
	c.counts[idx]++
	c.total++
}

// Count returns the execution count of one path.
func (c *Coverage) Count(k CovKey) uint64 { return c.counts[covIndex(k.Op, k.T)] }

// Total returns the total executed warp-instruction count.
func (c *Coverage) Total() uint64 { return c.total }

// Keys returns all exercised paths, ordered by opcode then type.
func (c *Coverage) Keys() []CovKey {
	var out []CovKey
	for i, n := range c.counts {
		if n != 0 {
			out = append(out, CovKey{Op: ptx.Op(i / ptx.TypeLimit), T: ptx.Type(i % ptx.TypeLimit)})
		}
	}
	return out
}

// Diff returns the paths exercised by c but not by base: the differential
// coverage the paper used to localise suspicious instruction
// implementations before falling back to instruction-level comparison.
func (c *Coverage) Diff(base *Coverage) []CovKey {
	var out []CovKey
	for _, k := range c.Keys() {
		if base.Count(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}
