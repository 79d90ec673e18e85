package kernels_test

import (
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/ref"
)

// sgemmCases is the shape table every layout runs: a single tile, full
// tiles, m = n = 1, k = 1, k below and not a multiple of the tile edge,
// beta = 1, and partial tiles with batch strides and beta ≠ 0.
var sgemmCases = []struct {
	name        string
	m, n, k     int
	batch       int
	alpha, beta float32
}{
	{"single_tile", 16, 16, 16, 1, 1, 0},
	{"full_tiles", 64, 64, 64, 1, 1.5, 0.5},
	{"batch1_odd_shapes", 5, 7, 13, 1, 1.5, 0.5},
	{"seq1", 1, 1, 9, 3, 1, 0},
	{"k1_rank1_update", 9, 11, 1, 1, 1, 1},
	{"k_below_tile", 5, 70, 3, 1, 1.5, 0.5},
	{"k_not_warp_multiple", 8, 8, 37, 2, 1, 0},
	{"accumulate_beta1", 8, 8, 37, 2, 1, 1},
	{"batched_strides", 8, 12, 10, 4, 1, 0},
	{"partial_tiles_batched", 33, 17, 25, 4, 2, 0.25},
}

// gemmRef is the signature ref.Gemm, ref.GemmNT and ref.GemmTN share.
type gemmRef func(a, bm, cm []float32, m, n, k int, alpha, beta float32)

// testSgemmLayout runs sgemmCases through one kernel of the sgemm family
// against its CPU reference, batch slices packed back to back (whatever
// the layout, A holds m*k elements a slice and B k*n).
func testSgemmLayout(t *testing.T, kernel string, want gemmRef) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(21))
	for _, c := range sgemmCases {
		t.Run(c.name, func(t *testing.T) {
			sa, sb, sc := c.m*c.k, c.k*c.n, c.m*c.n
			a := randSlice(rng, c.batch*sa)
			bm := randSlice(rng, c.batch*sb)
			cm := randSlice(rng, c.batch*sc)
			exp := append([]float32(nil), cm...)
			for bz := 0; bz < c.batch; bz++ {
				want(a[bz*sa:], bm[bz*sb:], exp[bz*sc:(bz+1)*sc], c.m, c.n, c.k, c.alpha, c.beta)
			}
			pa, pb, pc := upload(t, ctx, a), upload(t, ctx, bm), upload(t, ctx, cm)
			params := cudart.NewParams().Ptr(pa).Ptr(pb).Ptr(pc).
				U32(uint32(c.m)).U32(uint32(c.n)).U32(uint32(c.k)).
				U32(uint32(sa)).U32(uint32(sb)).U32(uint32(sc)).
				F32(c.alpha).F32(c.beta)
			grid := exec.Dim3{X: (c.n + 15) / 16, Y: (c.m + 15) / 16, Z: c.batch}
			if _, err := ctx.Launch(kernel, grid, exec.Dim3{X: 16, Y: 16}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			got := ctx.MemcpyF32DtoH(pc, c.batch*sc)
			if d := maxAbsDiff(got, exp); d > 1e-4 {
				t.Fatalf("%s %s: max diff %g", kernel, c.name, d)
			}
		})
	}
}

// One entry point per layout, so `-run TestSgemmNTBatched` selects the
// attention-score GEMM alone.

func TestSgemmTiled(t *testing.T)     { testSgemmLayout(t, "sgemm_tiled", ref.Gemm) }
func TestSgemmNTBatched(t *testing.T) { testSgemmLayout(t, "sgemm_nt_batched", ref.GemmNT) }
func TestSgemmTNBatched(t *testing.T) { testSgemmLayout(t, "sgemm_tn_batched", ref.GemmTN) }
