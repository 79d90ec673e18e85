package kernels_test

import (
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/ref"
)

// Table-driven tests for the transformer kernel builders, covering the
// shape/stride edge cases the launch code must survive: batch=1, seq=1,
// head dims that are not a multiple of the warp size, and row lengths
// that leave partial tiles/warp iterations.

func TestLayerNormKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(22))
	const eps = 1e-5
	cases := []struct {
		name       string
		rows, cols int
	}{
		{"single_element_rows", 4, 1},
		{"cols_below_warp", 2, 7},
		{"cols_warp_exact", 3, 32},
		{"cols_odd_above_warp", 5, 33},
		{"one_row", 1, 96},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := randSlice(rng, c.rows*c.cols)
			gamma := randSlice(rng, c.cols)
			beta := randSlice(rng, c.cols)
			want := ref.LayerNorm(x, gamma, beta, c.rows, c.cols, eps)
			px, pg, pb := upload(t, ctx, x), upload(t, ctx, gamma), upload(t, ctx, beta)
			py := alloc(t, ctx, c.rows*c.cols)
			params := cudart.NewParams().Ptr(px).Ptr(pg).Ptr(pb).Ptr(py).
				U32(uint32(c.cols)).F32(eps)
			if _, err := ctx.Launch("layernorm_forward", exec.Dim3{X: c.rows}, exec.Dim3{X: 32}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			got := ctx.MemcpyF32DtoH(py, c.rows*c.cols)
			if d := maxAbsDiff(got, want); d > 1e-3 {
				t.Fatalf("layernorm %s: max diff %g", c.name, d)
			}
		})
	}
}

func TestGeluKernel(t *testing.T) {
	ctx := newCtx(t)
	// include saturation extremes: the kernel clamps its tanh argument,
	// large inputs must come out as ~x (pos) and ~0 (neg), never NaN
	x := []float32{-50, -8, -3, -1, -0.1, 0, 0.1, 1, 3, 8, 50, 0.5, -0.5}
	want := ref.Gelu(x)
	px := upload(t, ctx, x)
	py := alloc(t, ctx, len(x))
	params := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(len(x)))
	if _, err := ctx.Launch("gelu_forward", grid1D(len(x), 128), exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	got := ctx.MemcpyF32DtoH(py, len(x))
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("gelu: max diff %g (got %v)", d, got)
	}
	for i, v := range got {
		if v != v {
			t.Fatalf("gelu produced NaN at %d (input %v)", i, x[i])
		}
	}
}

func TestResidualAddKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 255, 256, 300} {
		x := randSlice(rng, n)
		r := randSlice(rng, n)
		want := ref.AddResidual(x, r)
		px, pr := upload(t, ctx, x), upload(t, ctx, r)
		py := alloc(t, ctx, n)
		params := cudart.NewParams().Ptr(px).Ptr(pr).Ptr(py).U32(uint32(n))
		if _, err := ctx.Launch("residual_add", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatalf("launch: %v", err)
		}
		got := ctx.MemcpyF32DtoH(py, n)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("residual_add n=%d: max diff %g", n, d)
		}
	}
}

func TestHeadPermuteKernels(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(24))
	cases := []struct {
		name           string
		seq, heads, dh int
	}{
		{"single_head", 4, 1, 8},
		{"seq1", 1, 3, 4},
		{"dh_not_warp_multiple", 6, 2, 5},
		{"dh1", 3, 4, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.seq * c.heads * c.dh
			x := randSlice(rng, n)
			wantSplit := ref.SplitHeads(x, c.seq, c.heads, c.dh)
			px := upload(t, ctx, x)
			ps := alloc(t, ctx, n)
			pm := alloc(t, ctx, n)
			params := cudart.NewParams().Ptr(px).Ptr(ps).
				U32(uint32(c.seq)).U32(uint32(c.heads)).U32(uint32(c.dh))
			if _, err := ctx.Launch("split_heads", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
				t.Fatalf("split launch: %v", err)
			}
			got := ctx.MemcpyF32DtoH(ps, n)
			if d := maxAbsDiff(got, wantSplit); d != 0 {
				t.Fatalf("split_heads %s: diff %g", c.name, d)
			}
			// merge must invert split exactly
			params = cudart.NewParams().Ptr(ps).Ptr(pm).
				U32(uint32(c.seq)).U32(uint32(c.heads)).U32(uint32(c.dh))
			if _, err := ctx.Launch("merge_heads", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
				t.Fatalf("merge launch: %v", err)
			}
			back := ctx.MemcpyF32DtoH(pm, n)
			if d := maxAbsDiff(back, x); d != 0 {
				t.Fatalf("merge(split(x)) %s: diff %g", c.name, d)
			}
		})
	}
}

func TestEmbeddingLookupKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(25))
	vocab, cols := 13, 7
	table := randSlice(rng, vocab*cols)
	ids := []int32{0, 12, 5, 5, 1}
	want := ref.EmbeddingLookup(table, ids, cols)
	pt := upload(t, ctx, table)
	pids, err := ctx.Malloc(uint64(4 * len(ids)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		buf[4*i] = byte(id)
		buf[4*i+1] = byte(id >> 8)
		buf[4*i+2] = byte(id >> 16)
		buf[4*i+3] = byte(id >> 24)
	}
	ctx.MemcpyHtoD(pids, buf)
	po := alloc(t, ctx, len(want))
	n := len(ids) * cols
	params := cudart.NewParams().Ptr(pt).Ptr(pids).Ptr(po).
		U32(uint32(len(ids))).U32(uint32(cols))
	if _, err := ctx.Launch("embedding_lookup", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	got := ctx.MemcpyF32DtoH(po, len(want))
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("embedding_lookup: diff %g", d)
	}
}
