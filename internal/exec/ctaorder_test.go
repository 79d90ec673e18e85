package exec_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cudart"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// ctaOrders are the block orders orderDependence runs a launch under.
var ctaOrders = []struct {
	name  string
	order func(n int) []int
}{
	{"identity", exec.IdentityOrder},
	{"reverse", exec.ReverseOrder},
	{"seeded", exec.SeededOrder(1)},
}

// orderDependence runs one launch of k under every order of ctaOrders,
// each on a copy of the memory image img, and returns the orders whose
// final image differs from the identity order's (ROADMAP 21(a)+(c)).
// Each run goes through CaptureGrid, and the memo it records, applied to
// a fresh copy of img, must leave the run's own image: replay's
// functional effect follows the order the capture ran in.
func orderDependence(t *testing.T, img *device.Snapshot, k *ptx.Kernel, grid, block exec.Dim3, params *cudart.Params) []string {
	t.Helper()
	fresh := func() *device.Memory {
		mem := device.NewMemory()
		mem.Restore(img)
		return mem
	}
	var want *device.Snapshot
	var differ []string
	for _, o := range ctaOrders {
		mem := fresh()
		m := exec.NewMachine(exec.BugSet{}, mem, device.NewTextureRegistry())
		exec.SetCTAOrder(m, o.order)
		g, err := m.NewGrid(k, grid, block, params.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := m.CaptureGrid(g)
		if err != nil {
			t.Fatalf("%s order: %v", o.name, err)
		}
		got := mem.Snapshot()
		replayed := fresh()
		memo.Apply(exec.NewMachine(exec.BugSet{}, replayed, nil))
		if !reflect.DeepEqual(replayed.Snapshot(), got) {
			t.Fatalf("%s order: the captured memo applied to the launch's input leaves another image than the run", o.name)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			differ = append(differ, o.name)
		}
	}
	return differ
}

// oneKernel parses a single-kernel module and returns its kernel.
func oneKernel(t *testing.T, src string) *ptx.Kernel {
	t.Helper()
	mod, err := ptx.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return mod.Kernels[mod.KernelOrder[0]]
}

// TestCTAOrderDependence checks that orderDependence reports the two
// kinds of kernel whose result depends on block order — float atomics
// and a cross-CTA race — and does not report a race-free library kernel.
func TestCTAOrderDependence(t *testing.T) {
	ctx := cudart.NewContext(exec.BugSet{})
	word, _ := ctx.Malloc(4)
	one := exec.Dim3{X: 1}

	t.Run("float atomics are reported", func(t *testing.T) {
		// four CTAs add 2^24, 1, 1 and -2^24: in block order each 1 is
		// rounded away and the sum is 0, in reverse order it is 2
		b := kernels.NewBuilder("fatom")
		sum, vals := b.LoadPtr(b.PtrParam("sum")), b.LoadPtr(b.PtrParam("vals"))
		cta, v, old := b.R(kernels.B32), b.R(kernels.F32), b.R(kernels.F32)
		b.I("mov.u32 %s, %%ctaid.x;", cta)
		b.I("ld.global.f32 %s, [%s];", v, b.ElemAddr(vals, cta, 4))
		b.I("atom.global.add.f32 %s, [%s], %s;", old, sum, v)
		k := oneKernel(t, kernels.Module(nil, b.Build()))
		addends, _ := ctx.Malloc(16)
		ctx.MemcpyF32HtoD(addends, []float32{1 << 24, 1, 1, -(1 << 24)})
		ctx.MemcpyF32HtoD(word, []float32{0})
		params := cudart.NewParams().Ptr(word).Ptr(addends)
		if got := orderDependence(t, ctx.Mem.Snapshot(), k, exec.Dim3{X: 4}, one, params); len(got) == 0 {
			t.Error("a float-atomic sum was not reported as order-dependent")
		}
	})

	t.Run("a cross-CTA race is reported", func(t *testing.T) {
		// every CTA stores its own index to one word: the last one wins
		b := kernels.NewBuilder("race")
		p, cta := b.LoadPtr(b.PtrParam("word")), b.R(kernels.B32)
		b.I("mov.u32 %s, %%ctaid.x;", cta)
		b.I("st.global.u32 [%s], %s;", p, cta)
		k := oneKernel(t, kernels.Module(nil, b.Build()))
		params := cudart.NewParams().Ptr(word)
		if got := orderDependence(t, ctx.Mem.Snapshot(), k, exec.Dim3{X: 4}, one, params); len(got) == 0 {
			t.Error("a racy store was not reported as order-dependent")
		}
	})

	t.Run("residual_add is not reported", func(t *testing.T) {
		mods, err := kernels.ParsedModules()
		if err != nil {
			t.Fatal(err)
		}
		var k *ptx.Kernel
		for _, m := range mods {
			if k = m.Kernels["residual_add"]; k != nil {
				break
			}
		}
		const n = 1000 // eight CTAs of 128, the last one partial
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(math.Sin(float64(i)))
		}
		x, _ := ctx.Malloc(4 * n)
		r, _ := ctx.Malloc(4 * n)
		y, _ := ctx.Malloc(4 * n)
		ctx.MemcpyF32HtoD(x, vals)
		ctx.MemcpyF32HtoD(r, vals[1:])
		params := cudart.NewParams().Ptr(x).Ptr(r).Ptr(y).U32(n)
		if got := orderDependence(t, ctx.Mem.Snapshot(), k, exec.Dim3{X: (n + 127) / 128}, exec.Dim3{X: 128}, params); len(got) != 0 {
			t.Errorf("residual_add reported as order-dependent under %v", got)
		}
	})
}
