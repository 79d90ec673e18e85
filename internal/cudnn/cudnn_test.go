package cudnn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cudart"
	"repro/internal/cudnn"
	"repro/internal/exec"
	"repro/internal/ref"
)

func newHandle(t *testing.T) (*cudart.Context, *cudnn.Handle) {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	h, err := cudnn.Create(ctx)
	if err != nil {
		t.Fatalf("cudnn.Create: %v", err)
	}
	return ctx, h
}

func upload(t *testing.T, ctx *cudart.Context, data []float32) uint64 {
	t.Helper()
	addr, err := ctx.Malloc(uint64(4 * len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ctx.MemcpyF32HtoD(addr, data)
	return addr
}

func alloc(t *testing.T, ctx *cudart.Context, n int) uint64 {
	t.Helper()
	addr, err := ctx.Malloc(uint64(4 * n))
	if err != nil {
		t.Fatal(err)
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

// TestConvForwardAllAlgorithms checks that every forward algorithm the
// paper sweeps (§V-A) produces the reference result on a shape it
// supports.
func TestConvForwardAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type shape struct {
		xs ref.TensorShape4
		k  int
		r  int
		p  ref.ConvParams
	}
	small3x3 := shape{ref.TensorShape4{N: 2, C: 3, H: 12, W: 10}, 4, 3, ref.ConvParams{Stride: 1, Pad: 1}}
	fiveByFive := shape{ref.TensorShape4{N: 1, C: 2, H: 12, W: 12}, 3, 5, ref.ConvParams{Stride: 1, Pad: 0}}
	big := shape{ref.TensorShape4{N: 1, C: 2, H: 40, W: 36}, 3, 5, ref.ConvParams{Stride: 1, Pad: 2}}
	cases := []struct {
		algo cudnn.ConvFwdAlgo
		s    shape
		tol  float64
	}{
		{cudnn.FwdAlgoImplicitGemm, small3x3, 1e-4},
		{cudnn.FwdAlgoGemm, small3x3, 1e-4},
		{cudnn.FwdAlgoGemm, fiveByFive, 1e-4},
		{cudnn.FwdAlgoFFT, fiveByFive, 5e-3},
		{cudnn.FwdAlgoFFTTiling, big, 5e-3},
		{cudnn.FwdAlgoWinograd, small3x3, 1e-3},
		{cudnn.FwdAlgoWinogradNonfused, small3x3, 1e-3},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			ctx, h := newHandle(t)
			x := randSlice(rng, c.s.xs.Count())
			w := randSlice(rng, c.s.k*c.s.xs.C*c.s.r*c.s.r)
			want, ys := ref.Conv2DForward(x, c.s.xs, w, c.s.k, c.s.r, c.s.p)
			px, pw := upload(t, ctx, x), upload(t, ctx, w)
			py := alloc(t, ctx, ys.Count())
			xd := cudnn.TensorDesc{N: c.s.xs.N, C: c.s.xs.C, H: c.s.xs.H, W: c.s.xs.W}
			fd := cudnn.FilterDesc{K: c.s.k, C: c.s.xs.C, R: c.s.r, S: c.s.r}
			cd := cudnn.ConvDesc{Pad: c.s.p.Pad, Stride: c.s.p.Stride}
			yd, err := h.ConvolutionForward(c.algo, px, xd, pw, fd, cd, py)
			if err != nil {
				t.Fatalf("forward: %v", err)
			}
			if yd.H != ys.H || yd.W != ys.W || yd.C != ys.C {
				t.Fatalf("shape mismatch: %+v vs %+v", yd, ys)
			}
			got := ctx.MemcpyF32DtoH(py, ys.Count())
			if d := maxAbsDiff(got, want); d > c.tol {
				t.Fatalf("%s: max diff %g (tol %g)", c.algo, d, c.tol)
			}
		})
	}
}

func TestConvBackwardDataAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	xs := ref.TensorShape4{N: 2, C: 3, H: 12, W: 10}
	k, r := 4, 3
	p := ref.ConvParams{Stride: 1, Pad: 1}
	oh, ow := p.ConvOut(xs.H, r), p.ConvOut(xs.W, r)
	ys := ref.TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	dy := randSlice(rng, ys.Count())
	w := randSlice(rng, k*xs.C*r*r)
	want := ref.Conv2DBackwardData(dy, ys, w, xs.C, r, xs, p)

	algos := []struct {
		algo cudnn.ConvBwdDataAlgo
		tol  float64
	}{
		{cudnn.BwdDataAlgo0, 1e-4},
		{cudnn.BwdDataAlgo1, 1e-3},
		{cudnn.BwdDataFFTTiling, 5e-3},
		{cudnn.BwdDataWinograd, 1e-3},
		{cudnn.BwdDataWinogradNonfused, 1e-3},
	}
	for _, a := range algos {
		t.Run(a.algo.String(), func(t *testing.T) {
			ctx, h := newHandle(t)
			pdy, pw := upload(t, ctx, dy), upload(t, ctx, w)
			pdx := alloc(t, ctx, xs.Count())
			xd := cudnn.TensorDesc{N: xs.N, C: xs.C, H: xs.H, W: xs.W}
			fd := cudnn.FilterDesc{K: k, C: xs.C, R: r, S: r}
			yd := cudnn.TensorDesc{N: ys.N, C: ys.C, H: ys.H, W: ys.W}
			cd := cudnn.ConvDesc{Pad: p.Pad, Stride: p.Stride}
			if err := h.ConvolutionBackwardData(a.algo, pw, fd, pdy, yd, cd, pdx, xd); err != nil {
				t.Fatalf("backward data: %v", err)
			}
			got := ctx.MemcpyF32DtoH(pdx, xs.Count())
			if d := maxAbsDiff(got, want); d > a.tol {
				t.Fatalf("%s: max diff %g", a.algo, d)
			}
		})
	}
}

func TestConvBackwardFilterAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	xs := ref.TensorShape4{N: 2, C: 3, H: 12, W: 10}
	k, r := 4, 3
	p := ref.ConvParams{Stride: 1, Pad: 1}
	oh, ow := p.ConvOut(xs.H, r), p.ConvOut(xs.W, r)
	ys := ref.TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	x := randSlice(rng, xs.Count())
	dy := randSlice(rng, ys.Count())
	want := ref.Conv2DBackwardFilter(x, xs, dy, ys, r, p)

	algos := []struct {
		algo cudnn.ConvBwdFilterAlgo
		tol  float64
	}{
		{cudnn.BwdFilterAlgo0, 1e-3},
		{cudnn.BwdFilterAlgo1, 1e-3},
		{cudnn.BwdFilterAlgo3, 1e-3},
		{cudnn.BwdFilterFFT, 2e-2},
		{cudnn.BwdFilterFFTTiling, 2e-2},
		{cudnn.BwdFilterWinogradNonfused, 1e-2},
	}
	for _, a := range algos {
		t.Run(a.algo.String(), func(t *testing.T) {
			ctx, h := newHandle(t)
			px, pdy := upload(t, ctx, x), upload(t, ctx, dy)
			pdw := alloc(t, ctx, k*xs.C*r*r)
			xd := cudnn.TensorDesc{N: xs.N, C: xs.C, H: xs.H, W: xs.W}
			fd := cudnn.FilterDesc{K: k, C: xs.C, R: r, S: r}
			yd := cudnn.TensorDesc{N: ys.N, C: ys.C, H: ys.H, W: ys.W}
			cd := cudnn.ConvDesc{Pad: p.Pad, Stride: p.Stride}
			if err := h.ConvolutionBackwardFilter(a.algo, px, xd, pdy, yd, cd, pdw, fd); err != nil {
				t.Fatalf("backward filter: %v", err)
			}
			got := ctx.MemcpyF32DtoH(pdw, k*xs.C*r*r)
			if d := maxAbsDiff(got, want); d > a.tol {
				t.Fatalf("%s: max diff %g", a.algo, d)
			}
		})
	}
}

func TestLayerOps(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ctx, h := newHandle(t)

	t.Run("pooling", func(t *testing.T) {
		xs := ref.TensorShape4{N: 2, C: 2, H: 8, W: 8}
		x := randSlice(rng, xs.Count())
		wantY, _, ys := ref.MaxPoolForward(x, xs, 2, 2)
		px := upload(t, ctx, x)
		py := alloc(t, ctx, ys.Count())
		pidx := alloc(t, ctx, ys.Count())
		xd := cudnn.TensorDesc{N: xs.N, C: xs.C, H: xs.H, W: xs.W}
		yd, err := h.PoolingForward(cudnn.PoolDesc{Window: 2, Stride: 2}, px, xd, py, pidx)
		if err != nil {
			t.Fatal(err)
		}
		if yd.Count() != ys.Count() {
			t.Fatalf("shape mismatch")
		}
		if d := maxAbsDiff(ctx.MemcpyF32DtoH(py, ys.Count()), wantY); d != 0 {
			t.Fatalf("pool fwd diff %g", d)
		}
	})

	t.Run("lrn", func(t *testing.T) {
		xd := cudnn.TensorDesc{N: 2, C: 5, H: 4, W: 4}
		ld := cudnn.LRNDesc{N: 5, K: 2, Alpha: 1e-2, Beta: 0.75}
		x := make([]float32, xd.Count())
		for i := range x {
			x[i] = rng.Float32() * 2
		}
		hw := xd.H * xd.W
		want := make([]float32, 0, xd.Count())
		for n := 0; n < xd.N; n++ {
			want = append(want, ref.LRNForward(x[n*xd.C*hw:(n+1)*xd.C*hw], xd.C, hw, ld.N, ld.K, ld.Alpha, ld.Beta)...)
		}
		px := upload(t, ctx, x)
		py := alloc(t, ctx, xd.Count())
		if err := h.LRNCrossChannelForward(ld, px, xd, py); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ctx.MemcpyF32DtoH(py, xd.Count()), want); d > 1e-3 {
			t.Fatalf("lrn diff %g", d)
		}
	})

	t.Run("softmax+bias+act", func(t *testing.T) {
		rows, cols := 3, 10
		x := randSlice(rng, rows*cols)
		px := upload(t, ctx, x)
		py := alloc(t, ctx, rows*cols)
		if err := h.SoftmaxForward(px, py, rows, cols); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ctx.MemcpyF32DtoH(py, rows*cols), ref.Softmax(x, rows, cols)); d > 1e-4 {
			t.Fatalf("softmax diff %g", d)
		}

		yd := cudnn.TensorDesc{N: 2, C: 3, H: 4, W: 4}
		y := randSlice(rng, yd.Count())
		bias := randSlice(rng, yd.C)
		want := append([]float32(nil), y...)
		ref.AddBias(want, bias, yd.N, yd.C, yd.H*yd.W)
		pyb, pb := upload(t, ctx, y), upload(t, ctx, bias)
		if err := h.AddTensor(pb, pyb, yd); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ctx.MemcpyF32DtoH(pyb, yd.Count()), want); d != 0 {
			t.Fatalf("bias diff %g", d)
		}
	})
}

// TestMultiKernelAPICalls confirms the paper's observation that one
// library call launches several kernels (the basis of the Fig. 2 debug
// bisection): the FFT forward path must launch at least 5 kernels.
func TestMultiKernelAPICalls(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ctx, h := newHandle(t)
	xs := ref.TensorShape4{N: 1, C: 2, H: 12, W: 12}
	x := randSlice(rng, xs.Count())
	w := randSlice(rng, 3*2*5*5)
	px, pw := upload(t, ctx, x), upload(t, ctx, w)
	py := alloc(t, ctx, 3*8*8)
	ctx.ResetStats()
	_, err := h.ConvolutionForward(cudnn.FwdAlgoFFT, px,
		cudnn.TensorDesc{N: 1, C: 2, H: 12, W: 12}, pw,
		cudnn.FilterDesc{K: 3, C: 2, R: 5, S: 5},
		cudnn.ConvDesc{Pad: 0, Stride: 1}, py)
	if err != nil {
		t.Fatal(err)
	}
	log := ctx.KernelStatsLog()
	if len(log) < 5 {
		t.Fatalf("FFT conv launched only %d kernels; expected a multi-kernel pipeline", len(log))
	}
	names := map[string]bool{}
	for _, s := range log {
		names[s.Name] = true
	}
	for _, want := range []string{"pad2d", "fft2d_r2c_16x16", "cgemm", "fft2d_c2r_16x16", "fft_crop"} {
		if !names[want] {
			t.Errorf("expected kernel %s in launch log, got %v", want, names)
		}
	}
}

// TestUnsupportedCombos pins down cuDNN-style NOT_SUPPORTED errors.
func TestUnsupportedCombos(t *testing.T) {
	ctx, h := newHandle(t)
	px := alloc(t, ctx, 64*64)
	pw := alloc(t, ctx, 9)
	py := alloc(t, ctx, 64*64)
	// Winograd with 5x5 filters
	_, err := h.ConvolutionForward(cudnn.FwdAlgoWinograd, px,
		cudnn.TensorDesc{N: 1, C: 1, H: 8, W: 8}, pw,
		cudnn.FilterDesc{K: 1, C: 1, R: 5, S: 5},
		cudnn.ConvDesc{Stride: 1}, py)
	if _, ok := err.(cudnn.ErrNotSupported); !ok {
		t.Errorf("winograd 5x5 = %v, want ErrNotSupported", err)
	}
	// FFT with frames beyond 32
	_, err = h.ConvolutionForward(cudnn.FwdAlgoFFT, px,
		cudnn.TensorDesc{N: 1, C: 1, H: 64, W: 64}, pw,
		cudnn.FilterDesc{K: 1, C: 1, R: 3, S: 3},
		cudnn.ConvDesc{Stride: 1}, py)
	if _, ok := err.(cudnn.ErrNotSupported); !ok {
		t.Errorf("fft 64x64 = %v, want ErrNotSupported", err)
	}
	// FFT with stride 2
	_, err = h.ConvolutionForward(cudnn.FwdAlgoFFT, px,
		cudnn.TensorDesc{N: 1, C: 1, H: 8, W: 8}, pw,
		cudnn.FilterDesc{K: 1, C: 1, R: 3, S: 3},
		cudnn.ConvDesc{Stride: 2}, py)
	if _, ok := err.(cudnn.ErrNotSupported); !ok {
		t.Errorf("fft stride 2 = %v, want ErrNotSupported", err)
	}
}

// TestDevicesShareParsedLibrary checks the library is parsed once per
// process: two contexts resolve a kernel name to the same *ptx.Kernel.
func TestDevicesShareParsedLibrary(t *testing.T) {
	a, _ := newHandle(t)
	b, _ := newHandle(t)
	for _, name := range []string{"sgemm_tiled", "fill_zero", "layernorm_forward", "sgd_update"} {
		_, ka, err := a.LookupKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		_, kb, _ := b.LookupKernel(name)
		if ka != kb {
			t.Errorf("%s: the two contexts hold different parsed kernels", name)
		}
	}
}

// TestScratchReleasedOnFailure: a convolution whose second workspace
// buffer cannot be allocated (an empty batch makes it zero bytes) fails
// with the allocator's error and gives back the buffer it already held.
func TestScratchReleasedOnFailure(t *testing.T) {
	ctx, h := newHandle(t)
	x, w, y := alloc(t, ctx, 64), alloc(t, ctx, 64), alloc(t, ctx, 64)
	live := len(ctx.Alloc.LiveAllocations())
	_, err := h.ConvolutionForward(cudnn.FwdAlgoWinogradNonfused, x, cudnn.TensorDesc{N: 0, C: 2, H: 4, W: 4},
		w, cudnn.FilterDesc{K: 2, C: 2, R: 3, S: 3}, cudnn.ConvDesc{Pad: 1, Stride: 1}, y)
	if err == nil {
		t.Fatal("a zero-byte workspace buffer went unnoticed")
	}
	if got := len(ctx.Alloc.LiveAllocations()); got != live {
		t.Errorf("%d allocations live after the failed call, %d before: workspace leaked (%v)", got, live, err)
	}
}
