package ptx

import (
	"math"
	"strings"
	"testing"
)

const vecAddSrc = `
.version 6.0
.target sm_61
.address_size 64

.visible .entry vecadd(
	.param .u64 pA,
	.param .u64 pB,
	.param .u64 pC,
	.param .u32 pN
)
{
	.reg .pred %p<2>;
	.reg .f32 %f<4>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<8>;

	ld.param.u64 %rd1, [pA];
	ld.param.u64 %rd2, [pB];
	ld.param.u64 %rd3, [pC];
	ld.param.u32 %r1, [pN];
	mov.u32 %r2, %ctaid.x;
	mov.u32 %r3, %ntid.x;
	mov.u32 %r4, %tid.x;
	mad.lo.s32 %r5, %r2, %r3, %r4;
	setp.ge.s32 %p1, %r5, %r1;
	@%p1 bra DONE;
	cvta.to.global.u64 %rd4, %rd1;
	mul.wide.s32 %rd5, %r5, 4;
	add.s64 %rd6, %rd4, %rd5;
	ld.global.f32 %f1, [%rd6];
	cvta.to.global.u64 %rd4, %rd2;
	add.s64 %rd7, %rd4, %rd5;
	ld.global.f32 %f2, [%rd7];
	add.f32 %f3, %f1, %f2;
	cvta.to.global.u64 %rd4, %rd3;
	add.s64 %rd6, %rd4, %rd5;
	st.global.f32 [%rd6], %f3;
DONE:
	ret;
}
`

func TestParseVecAdd(t *testing.T) {
	m, err := Parse(vecAddSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Version != "6.0" || m.Target != "sm_61" || m.AddressSize != 64 {
		t.Errorf("header = %q %q %d", m.Version, m.Target, m.AddressSize)
	}
	k := m.Kernels["vecadd"]
	if k == nil {
		t.Fatal("kernel vecadd missing")
	}
	if got := len(k.Params); got != 4 {
		t.Fatalf("params = %d, want 4", got)
	}
	if k.Params[3].Offset != 24 || k.Params[3].Size != 4 {
		t.Errorf("pN offset/size = %d/%d, want 24/4", k.Params[3].Offset, k.Params[3].Size)
	}
	if k.ParamBytes() != 28 {
		t.Errorf("ParamBytes = %d, want 28", k.ParamBytes())
	}
	if got := len(k.Instrs); got != 22 {
		t.Fatalf("instruction count = %d, want 22", got)
	}

	// The guarded branch must target DONE (pc 21) and reconverge there too,
	// since DONE's block post-dominates the branch.
	br := k.Instrs[9]
	if br.Op != OpBra || br.PredReg < 0 {
		t.Fatalf("pc 9 = %v, want guarded bra", br.Raw)
	}
	if int(br.Target) != k.Labels["DONE"] {
		t.Errorf("bra target = %d, want %d", br.Target, k.Labels["DONE"])
	}
	if int(br.RPC) != k.Labels["DONE"] {
		t.Errorf("bra RPC = %d, want %d", br.RPC, k.Labels["DONE"])
	}

	// mad.lo.s32 decoding
	mad := k.Instrs[7]
	if mad.Op != OpMad || !mad.Lo || mad.T != S32 || len(mad.Src()) != 3 {
		t.Errorf("mad decode wrong: %+v", mad)
	}
	// mul.wide.s32
	mw := k.Instrs[11]
	if mw.Op != OpMul || !mw.Wide || mw.T != S32 {
		t.Errorf("mul.wide decode wrong: %+v", mw)
	}
	if mw.Src()[1].Kind != OperandImm || mw.Src()[1].Imm != 4 {
		t.Errorf("mul.wide imm operand wrong: %+v", mw.Src()[1])
	}
	// cvta.to.global
	cv := k.Instrs[10]
	if cv.Op != OpCvta || !cv.To || cv.Space != SpaceGlobal || cv.T != U64 {
		t.Errorf("cvta decode wrong: %+v", cv)
	}
}

func TestParseImmediates(t *testing.T) {
	cases := []struct {
		lit   string
		bits  uint64
		float bool
	}{
		{"42", 42, false},
		{"-1", 0xFFFFFFFFFFFFFFFF, false},
		{"0x10", 16, false},
		{"0f3F800000", math.Float64bits(1.0), true},
		{"0f40490FDB", math.Float64bits(float64(math.Float32frombits(0x40490FDB))), true},
		{"0d3FF0000000000000", math.Float64bits(1.0), true},
	}
	for _, c := range cases {
		o, err := parseImm(c.lit)
		if err != nil {
			t.Errorf("parseImm(%q): %v", c.lit, err)
			continue
		}
		if o.Imm != c.bits || o.FloatImm != c.float {
			t.Errorf("parseImm(%q) = %x/%v, want %x/%v", c.lit, o.Imm, o.FloatImm, c.bits, c.float)
		}
	}
}

func TestParseVectorAndShared(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.address_size 64
.visible .entry vk(
	.param .u64 pIn,
	.param .u64 pOut
)
{
	.reg .f32 %f<8>;
	.reg .b64 %rd<4>;
	.reg .b32 %r<4>;
	.shared .align 8 .b8 tile[512];

	ld.param.u64 %rd1, [pIn];
	cvta.to.global.u64 %rd1, %rd1;
	ld.global.v2.f32 {%f1, %f2}, [%rd1];
	ld.global.v4.f32 {%f3, %f4, %f5, %f6}, [%rd1+16];
	mov.u32 %r1, tile;
	st.shared.v2.f32 [%r1], {%f1, %f2};
	bar.sync 0;
	ld.param.u64 %rd2, [pOut];
	cvta.to.global.u64 %rd2, %rd2;
	st.global.f32 [%rd2+4], %f3;
	ret;
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := m.Kernels["vk"]
	if k.SharedBytes != 512 {
		t.Errorf("SharedBytes = %d, want 512", k.SharedBytes)
	}
	v2 := k.Instrs[2]
	if v2.Vec != 2 || v2.Dst()[0].Kind != OperandVec || len(v2.Elems(&v2.Dst()[0])) != 2 {
		t.Errorf("v2 load decode wrong: %+v", v2)
	}
	v4 := k.Instrs[3]
	if v4.Vec != 4 || len(v4.Elems(&v4.Dst()[0])) != 4 || k.RegName(int(v4.Elems(&v4.Dst()[0])[3].Reg)) != "%f6" {
		t.Errorf("v4 load decode wrong: %+v", v4)
	}
	if v4.Src()[0].Kind != OperandMem || v4.Src()[0].Offset != 16 {
		t.Errorf("v4 address decode wrong: %+v", v4.Src()[0])
	}
	stv := k.Instrs[5]
	if stv.Op != OpSt || stv.Space != SpaceShared || stv.Vec != 2 {
		t.Errorf("shared vector store decode wrong: %+v", stv)
	}
	if stv.Src()[0].Kind != OperandMem || stv.Src()[1].Kind != OperandVec {
		t.Errorf("store operands wrong: %+v", stv.Src())
	}
	movSym := k.Instrs[4]
	if movSym.Src()[0].Kind != OperandSym || movSym.Src()[0].Sym != "tile" {
		t.Errorf("mov of shared symbol decode wrong: %+v", movSym)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undeclared register", `
.version 6.0
.target sm_61
.visible .entry k() { add.s32 %r1, %r2, %r3; ret; }`, "undeclared register"},
		{"undefined label", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .pred %p<2>; @%p1 bra NOWHERE; ret; }`, "undefined label"},
		{"unknown opcode", `
.version 6.0
.target sm_61
.visible .entry k() { frobnicate.s32 %r1; ret; }`, "unknown opcode"},
		{"module initializer", `
.version 6.0
.target sm_61
.global .b32 tbl = {1,2,3};
.visible .entry k() { ret; }`, "not supported"},
		{"saturate", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .f32 %f<3>; cvt.sat.f32.f32 %f1, %f2; ret; }`, "modifier .sat on cvt is not supported"},
		{"round toward zero", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .f32 %f<4>; add.rz.f32 %f1, %f2, %f3; ret; }`, "modifier .rz on add is not supported"},
		{"round down", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .f32 %f<4>; mul.rm.f32 %f1, %f2, %f3; ret; }`, "modifier .rm on mul is not supported"},
		{"round up", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .f32 %f<5>; fma.rp.f32 %f1, %f2, %f3, %f4; ret; }`, "modifier .rp on fma is not supported"},
		{"flush to zero", `
.version 6.0
.target sm_61
.visible .entry k() { .reg .f32 %f<4>; add.ftz.f32 %f1, %f2, %f3; ret; }`, "modifier .ftz on add is not supported"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Parse error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := Parse(vecAddSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := Print(m)
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-Parse of printed module failed: %v\n%s", err, text)
	}
	k1, k2 := m.Kernels["vecadd"], m2.Kernels["vecadd"]
	if len(k1.Instrs) != len(k2.Instrs) {
		t.Fatalf("instr count changed: %d -> %d", len(k1.Instrs), len(k2.Instrs))
	}
	for i := range k1.Instrs {
		a, b := k1.Instrs[i], k2.Instrs[i]
		if a.Op != b.Op || a.T != b.T || a.Space != b.Space || a.Vec != b.Vec ||
			a.Wide != b.Wide || a.Lo != b.Lo || a.Hi != b.Hi || a.Cmp != b.Cmp ||
			a.Target != b.Target || a.RPC != b.RPC || a.Raw != b.Raw {
			t.Errorf("pc %d changed: %q vs %q", i, a.Raw, b.Raw)
		}
	}
}

// TestPrintLabelsInNameOrder prints a kernel with two labels at one PC
// twenty times: the text must be the same every time, its labels at that
// PC in name order (the fuzzer's re-parse check and TestRoundTrip compare
// printed text).
func TestPrintLabelsInNameOrder(t *testing.T) {
	const src = `.version 6.0
.target sm_61
.address_size 64

.visible .entry twolabels(
	.param .u64 p
)
{
	.reg .pred %p1;
	.reg .u32 %r<2>;
	mov.u32 %r1, %tid.x;
	setp.eq.u32 %p1, %r1, 0;
	@%p1 bra TAIL;
LOOP:
TAIL:
	add.u32 %r1, %r1, 1;
	ret;
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first := Print(m)
	if !strings.Contains(first, "LOOP:\nTAIL:\n") {
		t.Fatalf("labels at one PC not in name order:\n%s", first)
	}
	for i := 1; i < 20; i++ {
		if got := Print(m); got != first {
			t.Fatalf("print %d differs from the first:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

func TestCFGDiamond(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry diamond(.param .u64 pOut)
{
	.reg .pred %p<2>;
	.reg .b32 %r<6>;
	.reg .b64 %rd<3>;

	mov.u32 %r1, %tid.x;
	and.b32 %r2, %r1, 1;
	setp.eq.s32 %p1, %r2, 0;
	@%p1 bra EVEN;
	mul.lo.s32 %r3, %r1, 3;
	bra JOIN;
EVEN:
	mul.lo.s32 %r3, %r1, 2;
JOIN:
	ld.param.u64 %rd1, [pOut];
	cvta.to.global.u64 %rd1, %rd1;
	mul.wide.s32 %rd2, %r1, 4;
	add.s64 %rd1, %rd1, %rd2;
	st.global.s32 [%rd1], %r3;
	ret;
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := m.Kernels["diamond"]
	join := k.Labels["JOIN"]
	br := k.Instrs[3]
	if br.Op != OpBra {
		t.Fatalf("pc 3 is %v", br.Raw)
	}
	if int(br.RPC) != join {
		t.Errorf("diamond branch RPC = %d, want JOIN at %d", br.RPC, join)
	}
	// The unconditional bra JOIN reconverges trivially at JOIN as well.
	ub := k.Instrs[5]
	if ub.Op != OpBra || ub.PredReg >= 0 {
		t.Fatalf("pc 5 is %v", ub.Raw)
	}
	if int(ub.RPC) != join {
		t.Errorf("uncond branch RPC = %d, want %d", ub.RPC, join)
	}
}

func TestCFGLoop(t *testing.T) {
	src := `
.version 6.0
.target sm_61
.visible .entry loopk(.param .u32 pN)
{
	.reg .pred %p<2>;
	.reg .b32 %r<6>;

	ld.param.u32 %r1, [pN];
	mov.u32 %r2, 0;
	mov.u32 %r3, 0;
LOOP:
	setp.ge.u32 %p1, %r2, %r1;
	@%p1 bra EXITL;
	add.u32 %r3, %r3, %r2;
	add.u32 %r2, %r2, 1;
	bra LOOP;
EXITL:
	ret;
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	k := m.Kernels["loopk"]
	exitl := k.Labels["EXITL"]
	br := k.Instrs[4]
	if int(br.RPC) != exitl {
		t.Errorf("loop guard RPC = %d, want EXITL %d", br.RPC, exitl)
	}
	back := k.Instrs[7]
	if back.Op != OpBra || int(back.Target) != k.Labels["LOOP"] {
		t.Errorf("back edge decode wrong: %+v", back)
	}
}
