package kernels_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/ref"
)

func newCtx(t *testing.T) *cudart.Context {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	for i, src := range kernels.AllModules() {
		if _, err := ctx.RegisterModule(src); err != nil {
			t.Fatalf("module %d failed to parse: %v", i, err)
		}
	}
	return ctx
}

func upload(t *testing.T, ctx *cudart.Context, data []float32) uint64 {
	t.Helper()
	addr, err := ctx.Malloc(uint64(4 * len(data)))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	ctx.MemcpyF32HtoD(addr, data)
	return addr
}

func alloc(t *testing.T, ctx *cudart.Context, n int) uint64 {
	t.Helper()
	addr, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	return addr
}

func randSlice(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func grid1D(n, block int) exec.Dim3 {
	return exec.Dim3{X: (n + block - 1) / block}
}

func TestAllModulesParse(t *testing.T) {
	ctx := newCtx(t)
	if len(ctx.Modules()) != 10 {
		t.Fatalf("expected 10 modules, got %d", len(ctx.Modules()))
	}
	// fill_zero exists in two modules (duplicate symbol across PTX files);
	// lookup must succeed and return the first registration.
	if _, _, err := ctx.LookupKernel("fill_zero"); err != nil {
		t.Fatalf("duplicate-name kernel lookup failed: %v", err)
	}
}

// TestAllModulesReproducible pins that the library text does not depend
// on map iteration order: two generations are byte-identical.
func TestAllModulesReproducible(t *testing.T) {
	a, b := kernels.AllModules(), kernels.AllModules()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("module %d differs between two AllModules calls", i)
		}
	}
}

func TestGemv2T(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(3))
	rows, cols := 37, 19
	a := randSlice(rng, rows*cols)
	x := randSlice(rng, rows)
	y := randSlice(rng, cols)
	want := append([]float32(nil), y...)
	ref.GemvT(a, x, want, rows, cols, 2, 0.25)
	pa, px, py := upload(t, ctx, a), upload(t, ctx, x), upload(t, ctx, y)
	params := cudart.NewParams().Ptr(pa).Ptr(px).Ptr(py).
		U32(uint32(rows)).U32(uint32(cols)).F32(2).F32(0.25)
	if _, err := ctx.Launch("gemv2t", grid1D(cols, 64), exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	got := ctx.MemcpyF32DtoH(py, cols)
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("gemv2t: max diff %g", d)
	}
}

func TestIm2Col(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(4))
	c, h, w, r, s, stride, pad := 3, 9, 7, 3, 3, 2, 1
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	x := randSlice(rng, c*h*w)
	want := ref.Im2Col(x, c, h, w, r, s, oh, ow, stride, pad)
	px := upload(t, ctx, x)
	pcol := alloc(t, ctx, len(want))
	params := cudart.NewParams().Ptr(px).Ptr(pcol).
		U32(uint32(c)).U32(uint32(h)).U32(uint32(w)).
		U32(uint32(r)).U32(uint32(s)).U32(uint32(oh)).U32(uint32(ow)).
		U32(uint32(stride)).U32(uint32(pad))
	tot := c * r * s * oh * ow
	if _, err := ctx.Launch("im2col", grid1D(tot, 128), exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatalf("launch: %v", err)
	}
	got := ctx.MemcpyF32DtoH(pcol, len(want))
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("im2col: max diff %g", d)
	}
}

func TestElementwiseKernels(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(5))
	n := 300
	x := randSlice(rng, n)

	t.Run("relu_forward", func(t *testing.T) {
		px := upload(t, ctx, x)
		py := alloc(t, ctx, n)
		params := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(n))
		if _, err := ctx.Launch("relu_forward", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatal(err)
		}
		got := ctx.MemcpyF32DtoH(py, n)
		if d := maxAbsDiff(got, ref.Relu(x)); d != 0 {
			t.Fatalf("relu diff %g", d)
		}
	})
	t.Run("add_bias", func(t *testing.T) {
		c, spatial := 5, 12
		nn := 2 * c * spatial
		y := randSlice(rng, nn)
		bias := randSlice(rng, c)
		want := append([]float32(nil), y...)
		ref.AddBias(want, bias, 2, c, spatial)
		py, pb := upload(t, ctx, y), upload(t, ctx, bias)
		params := cudart.NewParams().Ptr(py).Ptr(pb).U32(uint32(nn)).U32(uint32(c)).U32(uint32(spatial))
		if _, err := ctx.Launch("add_bias", grid1D(nn, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatal(err)
		}
		got := ctx.MemcpyF32DtoH(py, nn)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("add_bias diff %g", d)
		}
	})
	t.Run("sgd_update", func(t *testing.T) {
		g := randSlice(rng, n)
		w := append([]float32(nil), x...)
		want := make([]float32, n)
		for i := range want {
			want[i] = x[i] - 0.05*g[i]
		}
		pw, pg := upload(t, ctx, w), upload(t, ctx, g)
		params := cudart.NewParams().Ptr(pw).Ptr(pg).U32(uint32(n)).F32(0.05)
		if _, err := ctx.Launch("sgd_update", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatal(err)
		}
		got := ctx.MemcpyF32DtoH(pw, n)
		if d := maxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("sgd diff %g", d)
		}
	})
	t.Run("rotate_filter_180", func(t *testing.T) {
		k, c, r, s := 3, 2, 3, 3
		w := randSlice(rng, k*c*r*s)
		want := make([]float32, len(w))
		for kk := 0; kk < k; kk++ {
			for cc := 0; cc < c; cc++ {
				for rr := 0; rr < r; rr++ {
					for ss := 0; ss < s; ss++ {
						src := ((kk*c+cc)*r+rr)*s + ss
						dst := ((cc*k+kk)*r+(r-1-rr))*s + (s - 1 - ss)
						want[dst] = w[src]
					}
				}
			}
		}
		pw := upload(t, ctx, w)
		po := alloc(t, ctx, len(w))
		params := cudart.NewParams().Ptr(pw).Ptr(po).
			U32(uint32(k)).U32(uint32(c)).U32(uint32(r)).U32(uint32(s))
		if _, err := ctx.Launch("rotate_filter_180", grid1D(len(w), 64), exec.Dim3{X: 64}, params, 0); err != nil {
			t.Fatal(err)
		}
		got := ctx.MemcpyF32DtoH(po, len(w))
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("rotate diff %g", d)
		}
	})
	t.Run("f16_roundtrip", func(t *testing.T) {
		px := upload(t, ctx, x)
		ph := alloc(t, ctx, (n+1)/2) // n halves = n*2 bytes
		py := alloc(t, ctx, n)
		params := cudart.NewParams().Ptr(px).Ptr(ph).U32(uint32(n))
		if _, err := ctx.Launch("convert_f32_to_f16", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatal(err)
		}
		params = cudart.NewParams().Ptr(ph).Ptr(py).U32(uint32(n))
		if _, err := ctx.Launch("convert_f16_to_f32", grid1D(n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatal(err)
		}
		got := ctx.MemcpyF32DtoH(py, n)
		for i := range got {
			want := exec.HalfToF32(exec.F32ToHalf(x[i]))
			if got[i] != want {
				t.Fatalf("f16 roundtrip[%d] = %v, want %v", i, got[i], want)
			}
		}
	})
}

func TestMaxPool(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(6))
	xs := ref.TensorShape4{N: 2, C: 3, H: 8, W: 8}
	x := randSlice(rng, xs.Count())
	wantY, wantIdx, ys := ref.MaxPoolForward(x, xs, 2, 2)

	px := upload(t, ctx, x)
	py := alloc(t, ctx, ys.Count())
	pidx := alloc(t, ctx, ys.Count())
	perImage := ys.C * ys.H * ys.W
	params := cudart.NewParams().Ptr(px).Ptr(py).Ptr(pidx).
		U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
		U32(2).U32(2).U32(uint32(ys.H)).U32(uint32(ys.W))
	grid := exec.Dim3{X: (perImage + 127) / 128, Y: xs.N}
	if _, err := ctx.Launch("maxpool_forward", grid, exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	gotY := ctx.MemcpyF32DtoH(py, ys.Count())
	if d := maxAbsDiff(gotY, wantY); d != 0 {
		t.Fatalf("maxpool fwd diff %g", d)
	}
	for i, v := range ctx.MemcpyF32DtoH(pidx, ys.Count()) {
		if got := int32(math.Float32bits(v)); got != wantIdx[i] {
			t.Fatalf("maxpool argmax[%d] = %d, want %d", i, got, wantIdx[i])
		}
	}
}

func TestSoftmax(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	rows, cols := 4, 10
	x := randSlice(rng, rows*cols)
	want := ref.Softmax(x, rows, cols)
	px := upload(t, ctx, x)
	py := alloc(t, ctx, rows*cols)
	params := cudart.NewParams().Ptr(px).Ptr(py).U32(uint32(cols))
	if _, err := ctx.Launch("softmax_forward", exec.Dim3{X: rows}, exec.Dim3{X: 32}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, rows*cols)
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("softmax diff %g", d)
	}
	// rows sum to 1
	for r := 0; r < rows; r++ {
		var s float32
		for j := 0; j < cols; j++ {
			s += got[r*cols+j]
		}
		if math.Abs(float64(s-1)) > 1e-4 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestLRNForwardWithTexture(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(8))
	c, hw, win := 6, 20, 5
	k, alpha, beta := float32(2), float32(1e-2), float32(0.75)
	x := make([]float32, c*hw)
	for i := range x {
		x[i] = rng.Float32() * 3
	}
	want := ref.LRNForward(x, c, hw, win, k, alpha, beta)

	// Bind the input to the lrn_tex texture name, as the host-side layer
	// does before each launch (§III-C path).
	arr := device.NewCudaArray(c*hw, 1, 1)
	copy(arr.Data, x)
	tr, err := ctx.TexRefByName(kernels.LRNTexName)
	if err != nil {
		t.Fatalf("texref: %v", err)
	}
	if err := ctx.BindTextureToArray(tr, arr); err != nil {
		t.Fatalf("bind: %v", err)
	}
	py := alloc(t, ctx, c*hw)
	params := cudart.NewParams().Ptr(py).
		U32(uint32(c)).U32(uint32(hw)).U32(uint32(win)).
		F32(k).F32(alpha).F32(beta)
	if _, err := ctx.Launch("lrn_forward", grid1D(c*hw, 64), exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, c*hw)
	if d := maxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("lrn diff %g", d)
	}
}

// launchConvFwd runs implicit_gemm_conv_fwd for x/w and returns y.
func launchConvFwd(t *testing.T, ctx *cudart.Context, x []float32, xs ref.TensorShape4, w []float32, k, r int, p ref.ConvParams) []float32 {
	t.Helper()
	oh := p.ConvOut(xs.H, r)
	ow := p.ConvOut(xs.W, r)
	px, pw := upload(t, ctx, x), upload(t, ctx, w)
	py := alloc(t, ctx, xs.N*k*oh*ow)
	params := cudart.NewParams().Ptr(px).Ptr(pw).Ptr(py).
		U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
		U32(uint32(k)).U32(uint32(r)).U32(uint32(r)).
		U32(uint32(oh)).U32(uint32(ow)).
		U32(uint32(p.Stride)).U32(uint32(p.Pad))
	per := k * oh * ow
	grid := exec.Dim3{X: (per + 127) / 128, Y: xs.N}
	if _, err := ctx.Launch("implicit_gemm_conv_fwd", grid, exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	return ctx.MemcpyF32DtoH(py, xs.N*k*oh*ow)
}

func TestConvForwardImplicitGemm(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		xs   ref.TensorShape4
		k, r int
		p    ref.ConvParams
	}{
		{ref.TensorShape4{N: 1, C: 1, H: 8, W: 8}, 2, 3, ref.ConvParams{Stride: 1, Pad: 0}},
		{ref.TensorShape4{N: 2, C: 3, H: 9, W: 7}, 4, 3, ref.ConvParams{Stride: 2, Pad: 1}},
		{ref.TensorShape4{N: 1, C: 2, H: 12, W: 12}, 3, 5, ref.ConvParams{Stride: 1, Pad: 2}},
	}
	for _, c := range cases {
		x := randSlice(rng, c.xs.Count())
		w := randSlice(rng, c.k*c.xs.C*c.r*c.r)
		want, _ := ref.Conv2DForward(x, c.xs, w, c.k, c.r, c.p)
		got := launchConvFwd(t, ctx, x, c.xs, w, c.k, c.r, c.p)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("conv fwd %+v: diff %g", c, d)
		}
	}
}

func TestConvBwdData(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(11))
	xs := ref.TensorShape4{N: 2, C: 3, H: 8, W: 8}
	k, r := 4, 3
	p := ref.ConvParams{Stride: 1, Pad: 1}
	oh := p.ConvOut(xs.H, r)
	ow := p.ConvOut(xs.W, r)
	ys := ref.TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	dy := randSlice(rng, ys.Count())
	w := randSlice(rng, k*xs.C*r*r)
	want := ref.Conv2DBackwardData(dy, ys, w, xs.C, r, xs, p)

	for _, algo := range []string{"conv_bwd_data_algo0", "conv_bwd_data_algo1"} {
		pdy, pw := upload(t, ctx, dy), upload(t, ctx, w)
		pdx := alloc(t, ctx, xs.Count())
		// algo1 accumulates with atomics: zero-init required
		zp := cudart.NewParams().Ptr(pdx).U32(uint32(xs.Count()))
		if _, err := ctx.Launch("fill_zero", grid1D(xs.Count(), 128), exec.Dim3{X: 128}, zp, 0); err != nil {
			t.Fatal(err)
		}
		params := cudart.NewParams().Ptr(pdy).Ptr(pw).Ptr(pdx).
			U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
			U32(uint32(k)).U32(uint32(r)).U32(uint32(r)).
			U32(uint32(oh)).U32(uint32(ow)).
			U32(uint32(p.Stride)).U32(uint32(p.Pad))
		var grid exec.Dim3
		if algo == "conv_bwd_data_algo0" {
			per := xs.C * xs.H * xs.W
			grid = exec.Dim3{X: (per + 127) / 128, Y: xs.N}
		} else {
			per := k * oh * ow
			grid = exec.Dim3{X: (per + 127) / 128, Y: xs.N}
		}
		if _, err := ctx.Launch(algo, grid, exec.Dim3{X: 128}, params, 0); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got := ctx.MemcpyF32DtoH(pdx, xs.Count())
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("%s: diff %g", algo, d)
		}
	}
}

func TestConvBwdFilter(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(12))
	xs := ref.TensorShape4{N: 2, C: 3, H: 8, W: 8}
	k, r := 4, 3
	p := ref.ConvParams{Stride: 1, Pad: 1}
	oh := p.ConvOut(xs.H, r)
	ow := p.ConvOut(xs.W, r)
	ys := ref.TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	x := randSlice(rng, xs.Count())
	dy := randSlice(rng, ys.Count())
	want := ref.Conv2DBackwardFilter(x, xs, dy, ys, r, p)
	nW := k * xs.C * r * r

	run := func(algo string, grid, block exec.Dim3, withN bool) []float32 {
		px, pdy := upload(t, ctx, x), upload(t, ctx, dy)
		pdw := alloc(t, ctx, nW)
		zp := cudart.NewParams().Ptr(pdw).U32(uint32(nW))
		if _, err := ctx.Launch("fill_zero", grid1D(nW, 128), exec.Dim3{X: 128}, zp, 0); err != nil {
			t.Fatal(err)
		}
		params := cudart.NewParams().Ptr(px).Ptr(pdy).Ptr(pdw)
		if withN {
			params.U32(uint32(xs.N))
		}
		params.U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
			U32(uint32(k)).U32(uint32(r)).U32(uint32(r)).
			U32(uint32(oh)).U32(uint32(ow)).
			U32(uint32(p.Stride)).U32(uint32(p.Pad))
		if _, err := ctx.Launch(algo, grid, block, params, 0); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return ctx.MemcpyF32DtoH(pdw, nW)
	}

	t.Run("algo0", func(t *testing.T) {
		got := run("conv_bwd_filter_algo0", grid1D(nW, 64), exec.Dim3{X: 64}, true)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("algo0 diff %g", d)
		}
	})
	t.Run("algo1", func(t *testing.T) {
		per := k * oh * ow
		got := run("conv_bwd_filter_algo1", exec.Dim3{X: (per + 127) / 128, Y: xs.N}, exec.Dim3{X: 128}, false)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("algo1 diff %g", d)
		}
	})
	t.Run("algo3", func(t *testing.T) {
		got := run("conv_bwd_filter_algo3", exec.Dim3{X: nW}, exec.Dim3{X: 256}, true)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("algo3 diff %g", d)
		}
	})
}

func TestWinogradFused(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(13))
	xs := ref.TensorShape4{N: 2, C: 3, H: 10, W: 8}
	k := 4
	p := ref.ConvParams{Stride: 1, Pad: 1}
	x := randSlice(rng, xs.Count())
	w := randSlice(rng, k*xs.C*9)
	want, ys := ref.Conv2DForward(x, xs, w, k, 3, p)

	px, pw := upload(t, ctx, x), upload(t, ctx, w)
	py := alloc(t, ctx, ys.Count())
	params := cudart.NewParams().Ptr(px).Ptr(pw).Ptr(py).
		U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
		U32(uint32(k)).U32(uint32(ys.H)).U32(uint32(ys.W)).
		U32(uint32(p.Pad))
	tiles := ((ys.H + 1) / 2) * ((ys.W + 1) / 2)
	per := k * tiles
	grid := exec.Dim3{X: (per + 63) / 64, Y: xs.N}
	if _, err := ctx.Launch("winograd_fused_2x2_3x3", grid, exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, ys.Count())
	if d := maxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("winograd fused diff %g", d)
	}
}

func TestWinogradNonfusedPipeline(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(14))
	xs := ref.TensorShape4{N: 2, C: 3, H: 8, W: 8}
	k := 4
	p := ref.ConvParams{Stride: 1, Pad: 1}
	x := randSlice(rng, xs.Count())
	w := randSlice(rng, k*xs.C*9)
	want, ys := ref.Conv2DForward(x, xs, w, k, 3, p)

	tilesY := (ys.H + 1) / 2
	tilesX := (ys.W + 1) / 2
	P := xs.N * tilesY * tilesX
	kc := k * xs.C
	cp := xs.C * P
	kp := k * P

	px, pw := upload(t, ctx, x), upload(t, ctx, w)
	pu := alloc(t, ctx, 16*kc)
	pv := alloc(t, ctx, 16*cp)
	pm := alloc(t, ctx, 16*kp)
	py := alloc(t, ctx, ys.Count())

	// stage 1: filter transform
	params := cudart.NewParams().Ptr(pw).Ptr(pu).U32(uint32(kc))
	if _, err := ctx.Launch("winograd_filter_transform", grid1D(kc, 64), exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	// stage 2: input transform
	params = cudart.NewParams().Ptr(px).Ptr(pv).
		U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
		U32(uint32(tilesX)).U32(uint32(tilesY)).
		U32(uint32(p.Pad)).U32(uint32(xs.N))
	if _, err := ctx.Launch("winograd_input_transform", grid1D(cp, 64), exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	// stage 3: 16-way batched GEMM M[xi] = U[xi] (KxC) * V[xi] (CxP)
	params = cudart.NewParams().Ptr(pu).Ptr(pv).Ptr(pm).
		U32(uint32(k)).U32(uint32(P)).U32(uint32(xs.C)).
		U32(uint32(kc)).U32(uint32(cp)).U32(uint32(kp)).F32(1).F32(0)
	grid := exec.Dim3{X: (P + 15) / 16, Y: (k + 15) / 16, Z: 16}
	if _, err := ctx.Launch("sgemm_tiled", grid, exec.Dim3{X: 16, Y: 16}, params, 0); err != nil {
		t.Fatal(err)
	}
	// stage 4: output transform
	params = cudart.NewParams().Ptr(pm).Ptr(py).
		U32(uint32(k)).U32(uint32(ys.H)).U32(uint32(ys.W)).
		U32(uint32(tilesX)).U32(uint32(tilesY)).U32(uint32(xs.N))
	if _, err := ctx.Launch("winograd_output_transform", grid1D(kp, 64), exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, ys.Count())
	if d := maxAbsDiff(got, want); d > 1e-3 {
		t.Fatalf("winograd nonfused diff %g", d)
	}
}

func TestWinogradBwdFilter(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(15))
	xs := ref.TensorShape4{N: 2, C: 3, H: 8, W: 8}
	k := 4
	p := ref.ConvParams{Stride: 1, Pad: 1}
	oh := p.ConvOut(xs.H, 3)
	ow := p.ConvOut(xs.W, 3)
	ys := ref.TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	x := randSlice(rng, xs.Count())
	dy := randSlice(rng, ys.Count())
	want := ref.Conv2DBackwardFilter(x, xs, dy, ys, 3, p)

	px, pdy := upload(t, ctx, x), upload(t, ctx, dy)
	pdw := alloc(t, ctx, k*xs.C*9)
	params := cudart.NewParams().Ptr(px).Ptr(pdy).Ptr(pdw).
		U32(uint32(xs.C)).U32(uint32(xs.H)).U32(uint32(xs.W)).
		U32(uint32(k)).U32(uint32(oh)).U32(uint32(ow)).
		U32(uint32(p.Pad)).U32(uint32(xs.N))
	grid := exec.Dim3{X: k * xs.C}
	if _, err := ctx.Launch("winograd_bwd_filter", grid, exec.Dim3{X: 64}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(pdw, k*xs.C*9)
	if d := maxAbsDiff(got, want); d > 1e-2 {
		t.Fatalf("winograd bwd filter diff %g", d)
	}
}

// dft2D computes a naive 2D DFT of a real n x n tile (reference).
func dft2D(in []float32, n int) ([]float32, []float32) {
	re := make([]float32, n*n)
	im := make([]float32, n*n)
	for fy := 0; fy < n; fy++ {
		for fx := 0; fx < n; fx++ {
			var sr, si float64
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					ang := -2 * math.Pi * (float64(fy*y)/float64(n) + float64(fx*x)/float64(n))
					v := float64(in[y*n+x])
					sr += v * math.Cos(ang)
					si += v * math.Sin(ang)
				}
			}
			re[fy*n+fx] = float32(sr)
			im[fy*n+fx] = float32(si)
		}
	}
	return re, im
}

func TestFFTR2CAgainstDFT(t *testing.T) {
	for _, n := range []int{16, 32} {
		n := n
		t.Run(map[int]string{16: "fft2d_r2c_16x16", 32: "fft2d_r2c_32x32"}[n], func(t *testing.T) {
			ctx := newCtx(t)
			rng := rand.New(rand.NewSource(int64(16 + n)))
			in := randSlice(rng, n*n)
			wantRe, wantIm := dft2D(in, n)
			pin := upload(t, ctx, in)
			pout := alloc(t, ctx, 2*n*n)
			params := cudart.NewParams().Ptr(pin).Ptr(pout)
			name := "fft2d_r2c_32x32"
			if n == 16 {
				name = "fft2d_r2c_16x16"
			}
			if _, err := ctx.Launch(name, exec.Dim3{X: 1}, exec.Dim3{X: n}, params, 0); err != nil {
				t.Fatal(err)
			}
			got := ctx.MemcpyF32DtoH(pout, 2*n*n)
			var maxd float64
			for i := 0; i < n*n; i++ {
				dr := math.Abs(float64(got[2*i] - wantRe[i]))
				di := math.Abs(float64(got[2*i+1] - wantIm[i]))
				if dr > maxd {
					maxd = dr
				}
				if di > maxd {
					maxd = di
				}
			}
			if maxd > 2e-3*float64(n) {
				t.Fatalf("fft vs dft max diff %g", maxd)
			}
		})
	}
}

func TestFFTRoundTrip(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(17))
	n := 32
	planes := 3
	in := randSlice(rng, planes*n*n)
	pin := upload(t, ctx, in)
	pspec := alloc(t, ctx, 2*planes*n*n)
	pback := alloc(t, ctx, planes*n*n)
	params := cudart.NewParams().Ptr(pin).Ptr(pspec)
	if _, err := ctx.Launch("fft2d_r2c_32x32", exec.Dim3{X: planes}, exec.Dim3{X: n}, params, 0); err != nil {
		t.Fatal(err)
	}
	params = cudart.NewParams().Ptr(pspec).Ptr(pback).F32(1.0 / float32(n*n))
	if _, err := ctx.Launch("fft2d_c2r_32x32", exec.Dim3{X: planes}, exec.Dim3{X: n}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(pback, planes*n*n)
	if d := maxAbsDiff(got, in); d > 1e-3 {
		t.Fatalf("fft roundtrip diff %g", d)
	}
}

// TestFFTConvPipeline runs the full FFT convolution (pad, r2c of x and w,
// cgemm with conjugated filter spectrum, c2r, crop) and compares against
// the direct reference convolution.
func TestFFTConvPipeline(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(18))
	xs := ref.TensorShape4{N: 1, C: 2, H: 12, W: 12}
	k, r := 3, 5
	p := ref.ConvParams{Stride: 1, Pad: 0}
	n := 16 // 12 + 5 - 1 = 16 fits
	x := randSlice(rng, xs.Count())
	w := randSlice(rng, k*xs.C*r*r)
	want, ys := ref.Conv2DForward(x, xs, w, k, r, p)

	// pad x planes into n x n frames
	px := upload(t, ctx, x)
	pxpad := alloc(t, ctx, xs.C*n*n)
	params := cudart.NewParams().Ptr(px).Ptr(pxpad).
		U32(uint32(xs.H)).U32(uint32(xs.W)).U32(uint32(n)).U32(uint32(n)).
		U32(0).U32(0)
	if _, err := ctx.Launch("pad2d", exec.Dim3{X: (n*n + 127) / 128, Y: xs.C}, exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	// pad w planes
	pw := upload(t, ctx, w)
	pwpad := alloc(t, ctx, k*xs.C*n*n)
	params = cudart.NewParams().Ptr(pw).Ptr(pwpad).
		U32(uint32(r)).U32(uint32(r)).U32(uint32(n)).U32(uint32(n)).
		U32(0).U32(0)
	if _, err := ctx.Launch("pad2d", exec.Dim3{X: (n*n + 127) / 128, Y: k * xs.C}, exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	// spectra
	pxs := alloc(t, ctx, 2*xs.C*n*n)
	pws := alloc(t, ctx, 2*k*xs.C*n*n)
	params = cudart.NewParams().Ptr(pxpad).Ptr(pxs)
	if _, err := ctx.Launch("fft2d_r2c_16x16", exec.Dim3{X: xs.C}, exec.Dim3{X: n}, params, 0); err != nil {
		t.Fatal(err)
	}
	params = cudart.NewParams().Ptr(pwpad).Ptr(pws)
	if _, err := ctx.Launch("fft2d_r2c_16x16", exec.Dim3{X: k * xs.C}, exec.Dim3{X: n}, params, 0); err != nil {
		t.Fatal(err)
	}
	// cgemm
	pyspec := alloc(t, ctx, 2*k*n*n)
	params = cudart.NewParams().Ptr(pxs).Ptr(pws).Ptr(pyspec).
		U32(uint32(xs.C)).U32(uint32(k)).U32(uint32(n * n)).U32(1)
	if _, err := ctx.Launch("cgemm", grid1D(k*n*n, 128), exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	// inverse
	pyfull := alloc(t, ctx, k*n*n)
	params = cudart.NewParams().Ptr(pyspec).Ptr(pyfull).F32(1.0 / float32(n*n))
	if _, err := ctx.Launch("fft2d_c2r_16x16", exec.Dim3{X: k}, exec.Dim3{X: n}, params, 0); err != nil {
		t.Fatal(err)
	}
	// crop valid region
	py := alloc(t, ctx, ys.Count())
	params = cudart.NewParams().Ptr(pyfull).Ptr(py).
		U32(uint32(n)).U32(uint32(ys.H)).U32(uint32(ys.W)).U32(uint32(p.Pad))
	if _, err := ctx.Launch("fft_crop", exec.Dim3{X: (ys.H*ys.W + 127) / 128, Y: k}, exec.Dim3{X: 128}, params, 0); err != nil {
		t.Fatal(err)
	}
	got := ctx.MemcpyF32DtoH(py, ys.Count())
	if d := maxAbsDiff(got, want); d > 5e-3 {
		t.Fatalf("fft conv pipeline diff %g", d)
	}
}
