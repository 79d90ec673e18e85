package kernels_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/ref"
)

// Table-driven tests for the training kernel builders, covering the
// backward-pass shape edge cases: rows shorter than a warp, partial
// GEMM tiles, repeated token ids colliding on one table row (the
// atomics path), and label positions at the row boundaries.

func uploadIDs(t *testing.T, ctx *cudart.Context, ids []int32) uint64 {
	t.Helper()
	addr, err := ctx.Malloc(uint64(4 * len(ids)))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	ctx.MemcpyHtoD(addr, buf)
	return addr
}

func TestLayerNormBackwardKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(32))
	const eps = 1e-5
	cases := []struct {
		name       string
		rows, cols int
	}{
		{"cols_below_warp", 2, 7},
		{"cols_warp_exact", 3, 32},
		{"cols_odd_above_warp", 5, 33},
		{"one_row", 1, 96},
		{"many_rows_atomic_contention", 16, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := randSlice(rng, c.rows*c.cols)
			gamma := randSlice(rng, c.cols)
			dy := randSlice(rng, c.rows*c.cols)
			wantDX, wantDG, wantDB := ref.LayerNormBackward(x, gamma, dy, c.rows, c.cols, eps)
			px, pg, pdy := upload(t, ctx, x), upload(t, ctx, gamma), upload(t, ctx, dy)
			pdx := alloc(t, ctx, c.rows*c.cols)
			// dgamma/dbeta accumulate, so start them zeroed
			pdg := upload(t, ctx, make([]float32, c.cols))
			pdb := upload(t, ctx, make([]float32, c.cols))
			params := cudart.NewParams().Ptr(px).Ptr(pg).Ptr(pdy).Ptr(pdx).Ptr(pdg).Ptr(pdb).
				U32(uint32(c.cols)).F32(eps)
			if _, err := ctx.Launch("layernorm_backward", exec.Dim3{X: c.rows}, exec.Dim3{X: 32}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdx, c.rows*c.cols), wantDX); d > 2e-3 {
				t.Fatalf("layernorm_backward %s dx: max diff %g", c.name, d)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdg, c.cols), wantDG); d > 2e-3 {
				t.Fatalf("layernorm_backward %s dgamma: max diff %g", c.name, d)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdb, c.cols), wantDB); d > 2e-3 {
				t.Fatalf("layernorm_backward %s dbeta: max diff %g", c.name, d)
			}
		})
	}
}

func TestGeluBackwardKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(33))
	// saturation extremes included: the clamped tanh must give derivative
	// ~1 (pos tail) and ~0 (neg tail), never NaN
	x := []float32{-50, -8, -3, -1, -0.1, 0, 0.1, 1, 3, 8, 50, 0.5, -0.5}
	dy := randSlice(rng, len(x))
	want := ref.GeluBackward(x, dy)
	px, pdy := upload(t, ctx, x), upload(t, ctx, dy)
	pdx := alloc(t, ctx, len(x))
	params := cudart.NewParams().Ptr(px).Ptr(pdy).Ptr(pdx).U32(uint32(len(x)))
	if _, err := ctx.Launch("gelu_backward", grid1D(len(x), 128), exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	got := ctx.MemcpyF32DtoH(pdx, len(x))
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("gelu_backward: max diff %g (got %v)", d, got)
	}
	for i, v := range got {
		if v != v {
			t.Fatalf("gelu_backward produced NaN at %d (input %v)", i, x[i])
		}
	}
}

func TestSoftmaxBackwardKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(34))
	cases := []struct {
		name       string
		rows, cols int
	}{
		{"single_col", 3, 1},
		{"cols_below_warp", 4, 6},
		{"cols_odd_above_warp", 2, 37},
		{"one_row_long", 1, 80},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logits := randSlice(rng, c.rows*c.cols)
			probs := ref.Softmax(logits, c.rows, c.cols)
			dprobs := randSlice(rng, c.rows*c.cols)
			want := ref.SoftmaxBackward(probs, dprobs, c.rows, c.cols)
			pp, pdp := upload(t, ctx, probs), upload(t, ctx, dprobs)
			pdx := alloc(t, ctx, c.rows*c.cols)
			params := cudart.NewParams().Ptr(pp).Ptr(pdp).Ptr(pdx).U32(uint32(c.cols))
			if _, err := ctx.Launch("softmax_backward", exec.Dim3{X: c.rows}, exec.Dim3{X: 32}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdx, c.rows*c.cols), want); d > 1e-4 {
				t.Fatalf("softmax_backward %s: max diff %g", c.name, d)
			}
		})
	}
}

func TestSoftmaxXentBackwardKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(35))
	cases := []struct {
		name       string
		rows, cols int
		labels     []int32
	}{
		{"label_first_col", 2, 5, []int32{0, 0}},
		{"label_last_col", 3, 7, []int32{6, 6, 6}},
		{"cols_above_warp", 2, 61, []int32{17, 60}},
		{"one_row", 1, 29, []int32{11}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logits := randSlice(rng, c.rows*c.cols)
			wantDX, wantLoss := ref.SoftmaxXentBackward(logits, c.labels, c.rows, c.cols)
			px := upload(t, ctx, logits)
			plab := uploadIDs(t, ctx, c.labels)
			pdx := alloc(t, ctx, c.rows*c.cols)
			ploss := alloc(t, ctx, c.rows)
			params := cudart.NewParams().Ptr(px).Ptr(plab).Ptr(pdx).Ptr(ploss).
				U32(uint32(c.cols)).U32(uint32(c.rows))
			if _, err := ctx.Launch("softmax_xent_backward", exec.Dim3{X: c.rows}, exec.Dim3{X: 32}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdx, c.rows*c.cols), wantDX); d > 1e-3 {
				t.Fatalf("softmax_xent_backward %s dx: max diff %g", c.name, d)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(ploss, c.rows), wantLoss); d > 1e-3 {
				t.Fatalf("softmax_xent_backward %s loss: max diff %g", c.name, d)
			}
		})
	}
}

func TestEmbeddingBackwardKernel(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(36))
	cases := []struct {
		name  string
		vocab int
		cols  int
		ids   []int32
	}{
		{"unique_ids", 11, 8, []int32{1, 4, 9}},
		{"repeated_ids_collide", 5, 16, []int32{2, 2, 2, 0, 2}},
		{"single_token", 7, 33, []int32{3}},
		{"all_same_token", 4, 6, []int32{1, 1, 1, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows := len(c.ids)
			dy := randSlice(rng, rows*c.cols)
			want := ref.EmbeddingBackward(dy, c.ids, c.vocab, c.cols)
			pdy := upload(t, ctx, dy)
			pids := uploadIDs(t, ctx, c.ids)
			pdt := upload(t, ctx, make([]float32, c.vocab*c.cols))
			params := cudart.NewParams().Ptr(pdy).Ptr(pids).Ptr(pdt).
				U32(uint32(rows)).U32(uint32(c.cols))
			if _, err := ctx.Launch("embedding_backward", grid1D(rows*c.cols, 256), exec.Dim3{X: 256}, params, 0); err != nil {
				t.Fatalf("launch: %v", err)
			}
			if d := maxAbsDiff(ctx.MemcpyF32DtoH(pdt, c.vocab*c.cols), want); d > 1e-4 {
				t.Fatalf("embedding_backward %s: max diff %g", c.name, d)
			}
		})
	}
}
