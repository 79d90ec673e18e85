package exec

import (
	"math/rand"
	"slices"
)

// SetWarpInstrCeiling lowers a machine's runaway guard (maxWarpInstrs) so
// a test can trip it in microseconds. A test seam, not a knob.
func SetWarpInstrCeiling(m *Machine, n int64) { m.warpCeiling = n }

// SetCTAOrder makes RunGrid, and CaptureGrid through it, visit each
// launch's blocks in order(n), a permutation of 0..n-1; nil restores
// block order. A test seam, not a knob.
func SetCTAOrder(m *Machine, order func(n int) []int) { m.ctaOrder = order }

// IdentityOrder is block order: 0, 1, ..., n-1.
func IdentityOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ReverseOrder is n-1, ..., 1, 0.
func ReverseOrder(n int) []int {
	out := IdentityOrder(n)
	slices.Reverse(out)
	return out
}

// SeededOrder returns a permutation of the blocks drawn from seed, the
// same one for every launch of n blocks.
func SeededOrder(seed int64) func(n int) []int {
	return func(n int) []int { return rand.New(rand.NewSource(seed)).Perm(n) }
}
