package timing

import (
	"strings"
	"testing"

	"repro/internal/cudart"
	"repro/internal/exec"
)

// divergentRowsPTX is a diamond whose two sides the SIMT stack runs one
// after the other: the odd lanes take T first, then the even lanes fall
// through. %r3 (A) is defined before the branch and read only on the
// fall-through side; %r4 (B) is defined only on the taken side. No thread
// has both live at once, but the warp does: B's def sets the scoreboard
// while the parked even lanes still wait for A. The first instruction,
// <first>, reads two registers before anything writes them, which gives
// each a register row of its own (a read before any write must see
// zero). <a> and <b> are A's and B's defs.
const divergentRowsPTX = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry diamond(.param .u64 p)
{
	.reg .pred %p<2>;
	.reg .b32 %r<8>;
	.reg .b64 %rd<4>;
	<first>
	ld.param.u64 %rd1, [p];
	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 1;
	setp.eq.u32 %p1, %r2, 0;
	mul.wide.u32 %rd2, %r1, 4;
	add.u64 %rd3, %rd1, %rd2;
	<a>
	@%p1 bra T;
	add.u32 %r5, %r3, 1;
	st.global.u32 [%rd3], %r5;
	bra J;
T:
	<b>
J:
	ret;
}
`

// TestDivergentSidesKeepRows: a value one side of a diverged branch
// defines must not share a register row with one the other side reads.
// Each diamond runs twice on a fresh engine: once with A and B left to
// the allocator, once with both read first so that each holds a row of
// its own. The modelled cycles must be equal. Sharing a row lets the
// even lanes read A before its load returns ("load read early"), or
// makes them wait for B's load ("false stall").
func TestDivergentSidesKeepRows(t *testing.T) {
	cases := []struct{ name, a, b string }{
		{"load read early", "ld.global.u32 %r3, [%rd3];", "mov.u32 %r4, 7;\n\tst.global.u32 [%rd3], %r4;"},
		{"false stall", "add.u32 %r3, %r1, 5;", "ld.global.u32 %r4, [%rd3+256];"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := func(first string) string {
				return strings.NewReplacer("<first>", first, "<a>", tc.a, "<b>", tc.b).Replace(divergentRowsPTX)
			}
			shared := divergentRowsCycles(t, src("add.u32 %r6, %r7, %r0;"))
			own := divergentRowsCycles(t, src("add.u32 %r6, %r3, %r4;"))
			if shared != own {
				t.Fatalf("%d cycles with A and B allocated, %d with a row each", shared, own)
			}
		})
	}
}

// divergentRowsCycles runs the diamond of src over one CTA of 64 threads
// on a fresh engine and returns the modelled cycles.
func divergentRowsCycles(t *testing.T, src string) uint64 {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	eng, err := New(GTX1050())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ctx.RegisterModule(src); err != nil {
		t.Fatal(err)
	}
	_, kern, err := ctx.LookupKernel("diamond")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.Malloc(4 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ctx.M.NewGrid(kern, exec.Dim3{X: 1}, exec.Dim3{X: 64}, cudart.NewParams().Ptr(buf).Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(g, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng.Cycle()
}
