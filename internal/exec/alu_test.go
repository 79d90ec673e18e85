package exec

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/ptx"
)

func evalBin(t *testing.T, m *Machine, op ptx.Op, typ ptx.Type, a, b uint64) uint64 {
	t.Helper()
	in := &ptx.Instr{Op: op, T: typ, Raw: "test"}
	r, err := m.evalALU(in, [4]uint64{a, b})
	if err != nil {
		t.Fatalf("evalALU(%v.%v): %v", op, typ, err)
	}
	return r
}

func sneg(v int64) uint64 { return uint64(v) }

func cleanMachine() *Machine {
	return NewMachine(BugSet{}, nil, nil)
}

// Property: integer arithmetic matches Go's native semantics for every
// width and signedness. This is the per-instruction validation step the
// GPGPU-Sim authors describe (comparing each instruction against a
// reference implementation).
func TestIntegerALUProperties(t *testing.T) {
	m := cleanMachine()
	cfg := &quick.Config{MaxCount: 2000}

	t.Run("add.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			return evalBin(t, m, ptx.OpAdd, ptx.S32, uint64(int64(a)), uint64(int64(b))) == uint64(int64(a+b))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("sub.u64", func(t *testing.T) {
		f := func(a, b uint64) bool {
			return evalBin(t, m, ptx.OpSub, ptx.U64, a, b) == a-b
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul.lo.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			in := &ptx.Instr{Op: ptx.OpMul, T: ptx.S32, Lo: true, Raw: "test"}
			r, err := m.evalALU(in, [4]uint64{uint64(int64(a)), uint64(int64(b))})
			return err == nil && r == uint64(int64(a*b))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul.wide.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			in := &ptx.Instr{Op: ptx.OpMul, T: ptx.S32, Wide: true, Raw: "test"}
			r, err := m.evalALU(in, [4]uint64{uint64(int64(a)), uint64(int64(b))})
			return err == nil && int64(r) == int64(a)*int64(b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul.hi.u32", func(t *testing.T) {
		f := func(a, b uint32) bool {
			in := &ptx.Instr{Op: ptx.OpMul, T: ptx.U32, Hi: true, Raw: "test"}
			r, err := m.evalALU(in, [4]uint64{uint64(a), uint64(b)})
			return err == nil && uint32(r) == uint32(uint64(a)*uint64(b)>>32)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("div.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			if b == 0 || (a == math.MinInt32 && b == -1) {
				return true
			}
			return int32(evalBin(t, m, ptx.OpDiv, ptx.S32, uint64(int64(a)), uint64(int64(b)))) == a/b
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("rem.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			if b == 0 || (a == math.MinInt32 && b == -1) {
				return true
			}
			return int32(evalBin(t, m, ptx.OpRem, ptx.S32, uint64(int64(a)), uint64(int64(b)))) == a%b
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("rem.u32", func(t *testing.T) {
		f := func(a, b uint32) bool {
			if b == 0 {
				return true
			}
			return uint32(evalBin(t, m, ptx.OpRem, ptx.U32, uint64(a), uint64(b))) == a%b
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("rem.u64", func(t *testing.T) {
		f := func(a, b uint64) bool {
			if b == 0 {
				return true
			}
			return evalBin(t, m, ptx.OpRem, ptx.U64, a, b) == a%b
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("min.s32/max.s32", func(t *testing.T) {
		f := func(a, b int32) bool {
			lo := int32(evalBin(t, m, ptx.OpMin, ptx.S32, uint64(int64(a)), uint64(int64(b))))
			hi := int32(evalBin(t, m, ptx.OpMax, ptx.S32, uint64(int64(a)), uint64(int64(b))))
			wantLo, wantHi := a, b
			if b < a {
				wantLo, wantHi = b, a
			}
			return lo == wantLo && hi == wantHi
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("shl/shr", func(t *testing.T) {
		f := func(a int32, sh uint8) bool {
			s := uint64(sh % 40)
			l := evalBin(t, m, ptx.OpShl, ptx.B32, uint64(uint32(a)), s)
			ru := evalBin(t, m, ptx.OpShr, ptx.U32, uint64(uint32(a)), s)
			rs := int32(evalBin(t, m, ptx.OpShr, ptx.S32, uint64(int64(a)), s))
			var wantL, wantRU uint32
			var wantRS int32
			if s < 32 {
				wantL = uint32(a) << s
				wantRU = uint32(a) >> s
				wantRS = a >> s
			} else {
				wantL, wantRU = 0, 0
				wantRS = a >> 31
			}
			return uint32(l) == wantL && uint32(ru) == wantRU && rs == wantRS
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

// Property: the remainder bug injection reproduces exactly the original
// GPGPU-Sim behaviour (u64 % u64) for every type specifier.
func TestRemBugProperty(t *testing.T) {
	buggy := NewMachine(BugSet{RemU64: true}, nil, nil)
	f := func(a, b int32) bool {
		if b == 0 {
			return true
		}
		got := evalBin(t, buggy, ptx.OpRem, ptx.S32, uint64(int64(a)), uint64(int64(b)))
		want := uint64(int64(a)) % uint64(int64(b))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBFE(t *testing.T) {
	m := cleanMachine()
	cases := []struct {
		t       ptx.Type
		a, b, c uint64
		want    uint64
	}{
		{ptx.U32, 0xFF00, 8, 8, 0xFF},
		{ptx.U32, 0xABCD1234, 0, 4, 0x4},
		{ptx.U32, 0xABCD1234, 28, 4, 0xA},
		{ptx.S32, 0x80, 4, 4, sneg(-8)},        // field 1000 -> sign extended
		{ptx.S32, 0x70, 4, 4, 7},               // field 0111 -> positive
		{ptx.S32, 0xFFFFFFFF, 0, 32, sneg(-1)}, // full width
		{ptx.U32, 0xFFFFFFFF, 0, 32, 0xFFFFFFFF},
		{ptx.U64, 0xFF00000000, 32, 8, 0xFF},
		{ptx.S64, 0x8000000000000000, 56, 8, sneg(-128)},
	}
	for _, c := range cases {
		in := &ptx.Instr{Op: ptx.OpBfe, T: c.t, Raw: "bfe test"}
		got, err := m.evalALU(in, [4]uint64{c.a, c.b, c.c})
		if err != nil {
			t.Fatalf("bfe: %v", err)
		}
		if got != c.want {
			t.Errorf("bfe.%v(%#x, %d, %d) = %#x, want %#x", c.t, c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestBFEBugDiffersOnlyForSigned(t *testing.T) {
	good := cleanMachine()
	bad := NewMachine(BugSet{BFESigned: true}, nil, nil)
	f := func(a uint32, pos, length uint8) bool {
		p, l := uint64(pos%32), uint64(length%16+1)
		inU := &ptx.Instr{Op: ptx.OpBfe, T: ptx.U32, Raw: "t"}
		inS := &ptx.Instr{Op: ptx.OpBfe, T: ptx.S32, Raw: "t"}
		gu, _ := good.evalALU(inU, [4]uint64{uint64(a), p, l})
		bu, _ := bad.evalALU(inU, [4]uint64{uint64(a), p, l})
		if gu != bu {
			return false // unsigned extraction must be unaffected
		}
		gs, _ := good.evalALU(inS, [4]uint64{uint64(a), p, l})
		bs, _ := bad.evalALU(inS, [4]uint64{uint64(a), p, l})
		signBit := p + l - 1
		if signBit > 31 {
			signBit = 31
		}
		fieldNegative := a>>signBit&1 == 1 && l < 32
		if fieldNegative {
			return gs != bs // bug must bite on negative fields
		}
		return gs == bs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBrevProperty(t *testing.T) {
	m := cleanMachine()
	f := func(a uint32) bool {
		in := &ptx.Instr{Op: ptx.OpBrev, T: ptx.B32, Raw: "t"}
		r, err := m.evalALU(in, [4]uint64{uint64(a)})
		if err != nil {
			return false
		}
		// brev twice is the identity
		r2, err := m.evalALU(in, [4]uint64{r})
		return err == nil && uint32(r2) == a && uint32(r) == bits.Reverse32(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFloatOps(t *testing.T) {
	m := cleanMachine()
	cfg := &quick.Config{MaxCount: 2000}
	t.Run("add.f32", func(t *testing.T) {
		f := func(a, b float32) bool {
			r := evalBin(t, m, ptx.OpAdd, ptx.F32, uint64(math.Float32bits(a)), uint64(math.Float32bits(b)))
			want := a + b
			if want != want { // NaN
				g := math.Float32frombits(uint32(r))
				return g != g
			}
			return math.Float32frombits(uint32(r)) == want
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("fma.rn.f32 single rounding", func(t *testing.T) {
		in := &ptx.Instr{Op: ptx.OpFma, T: ptx.F32, Raw: "t"}
		f := func(a, b, c float32) bool {
			r, err := m.evalALU(in, [4]uint64{
				uint64(math.Float32bits(a)), uint64(math.Float32bits(b)), uint64(math.Float32bits(c))})
			if err != nil {
				return false
			}
			return math.Float32frombits(uint32(r)) == fmaExact32(a, b, c)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("setp float ordering", func(t *testing.T) {
		f := func(a, b float32) bool {
			in := &ptx.Instr{Op: ptx.OpSetp, T: ptx.F32, Cmp: ptx.CmpLt, Raw: "t"}
			r, err := m.evalALU(in, [4]uint64{uint64(math.Float32bits(a)), uint64(math.Float32bits(b))})
			if err != nil {
				return false
			}
			return (r == 1) == (a < b)
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

// fmaExact32 is a*b+c computed exactly and rounded once to float32.
func fmaExact32(a, b, c float32) float32 {
	r := new(big.Float).SetPrec(320).SetFloat64(float64(a))
	r.Mul(r, big.NewFloat(float64(b))).Add(r, big.NewFloat(float64(c)))
	f, _ := r.Float32()
	return f
}

// TestFmaRoundsOnce: fma.rn rounds the exact a*b+c once, on rows where a
// wider intermediate rounded to nearest rounds twice, in evalALU and in
// the warp handler's full-mask and partial-mask loops.
func TestFmaRoundsOnce(t *testing.T) {
	m := cleanMachine()
	for _, c := range []struct {
		name    string
		typ     ptx.Type
		a, b, c uint64
		want    uint64
	}{
		// (1+2^-12)^2 = 1+2^-11+2^-24 is a float32 midpoint; the 2^-80
		// above it rounds up, and a float64 sum drops it
		{"f32 midpoint plus 2^-80", ptx.F32, 0x3f800800, 0x3f800800, uint64(math.Float32bits(0x1p-80)), 0x3f801001},
		// the exact sum is 2^-26 above the f16 midpoint of 0x3416 and
		// 0x3417, itself a float32 midpoint: a float32 intermediate ties to
		// the f16 midpoint, and f16 then ties to even
		{"f16 above a midpoint", ptx.F16, 0xb2be, 0x2f61, 0x347a, 0x3417},
		// (1+2^-23)(1-2^-23)2^-150 = 2^-150-2^-196 added to the float32
		// subnormal 2^-130+2^-149: a float64 sum drops the 2^-196 and
		// lands on the subnormal midpoint, which ties up to even
		{"f32 subnormal below a midpoint", ptx.F32, 0x1a000001, 0x19fffffe, 0x00080001, 0x00080001},
		{"f32 exact", ptx.F32, uint64(math.Float32bits(1.5)), uint64(math.Float32bits(-3)), uint64(math.Float32bits(0.25)), uint64(math.Float32bits(-4.25))},
		{"f32 inf", ptx.F32, uint64(math.Float32bits(float32(math.Inf(1)))), uint64(math.Float32bits(2)), uint64(math.Float32bits(1)), uint64(math.Float32bits(float32(math.Inf(1))))},
		{"f16 exact", ptx.F16, 0x3e00, 0xc200, 0x3400, 0xc440}, // 1.5 * -3 + 0.25 = -4.25
	} {
		r, err := m.evalALU(&ptx.Instr{Op: ptx.OpFma, T: c.typ, Raw: c.name}, [4]uint64{c.a, c.b, c.c})
		if err != nil {
			t.Fatal(err)
		}
		if r != c.want {
			t.Errorf("%s: fma(%#x, %#x, %#x) = %#x, want %#x", c.name, c.a, c.b, c.c, r, c.want)
		}
		for _, mask := range []uint32{fullMask, 0xAAAAAAAA} {
			cta, w, _ := oneInstrWarp(t, m, aluInstr(ptx.Instr{Op: ptx.OpFma, T: c.typ}))
			regs := newSlotRegs(cta, w)
			for l := 0; l < WarpSize; l++ {
				regs.set(slotA, l, c.a)
				regs.set(slotB, l, c.b)
				regs.set(slotC, l, c.c)
				regs.set(slotPred, l, uint64(mask>>l&1))
			}
			var info StepInfo
			if err := m.StepWarp(cta, w, m.cov, &info); err != nil {
				t.Fatal(err)
			}
			if got := regs.get(slotDst, 31); got != c.want {
				t.Errorf("%s: warp handler, mask %#x: lane 31 reads %#x, want %#x", c.name, mask, got, c.want)
			}
		}
	}
}

func TestCvt(t *testing.T) {
	m := cleanMachine()
	cases := []struct {
		name string
		in   ptx.Instr
		src  uint64
		want uint64
	}{
		{"s32->f32", ptx.Instr{Op: ptx.OpCvt, T: ptx.F32, T2: ptx.S32}, sneg(-7), uint64(math.Float32bits(-7))},
		{"u32->f32", ptx.Instr{Op: ptx.OpCvt, T: ptx.F32, T2: ptx.U32}, 3000000000, uint64(math.Float32bits(3e9))},
		{"f32->s32 rni", ptx.Instr{Op: ptx.OpCvt, T: ptx.S32, T2: ptx.F32, Rnd: ptx.RndNearestInt}, uint64(math.Float32bits(2.5)), 2},
		{"f32->s32 rzi", ptx.Instr{Op: ptx.OpCvt, T: ptx.S32, T2: ptx.F32, Rnd: ptx.RndZeroInt}, uint64(math.Float32bits(-2.7)), sneg(-2)},
		{"f32->f64", ptx.Instr{Op: ptx.OpCvt, T: ptx.F64, T2: ptx.F32}, uint64(math.Float32bits(1.5)), math.Float64bits(1.5)},
		{"f64->f32", ptx.Instr{Op: ptx.OpCvt, T: ptx.F32, T2: ptx.F64}, math.Float64bits(0.1), uint64(math.Float32bits(float32(0.1)))},
		{"s16->s32 sext", ptx.Instr{Op: ptx.OpCvt, T: ptx.S32, T2: ptx.S16}, 0xFFFF, sneg(-1)},
		{"u16->u32 zext", ptx.Instr{Op: ptx.OpCvt, T: ptx.U32, T2: ptx.U16}, 0xFFFF, 0xFFFF},
		{"f32->f16", ptx.Instr{Op: ptx.OpCvt, T: ptx.F16, T2: ptx.F32}, uint64(math.Float32bits(1.0)), 0x3C00},
		{"f16->f32", ptx.Instr{Op: ptx.OpCvt, T: ptx.F32, T2: ptx.F16}, 0x3C00, uint64(math.Float32bits(1.0))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.in.Raw = c.name
			got, err := m.evalALU(&c.in, [4]uint64{c.src})
			if err != nil {
				t.Fatalf("cvt: %v", err)
			}
			if got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestF16RoundsOnce: an f16 result computed in float64 rounds once, not
// through float32 first, where that double rounding lands on a tie.
func TestF16RoundsOnce(t *testing.T) {
	m := cleanMachine()
	for _, c := range []struct {
		name string
		in   ptx.Instr
		src  uint64
		want uint64
	}{
		// 1+2^-11+2^-40: float32 drops the 2^-40 and leaves the f16
		// midpoint of 0x3c00 and 0x3c01, which ties to even
		{"cvt.rn.f16.f64", ptx.Instr{Op: ptx.OpCvt, T: ptx.F16, T2: ptx.F64}, 0x3FF0020000001000, 0x3c01},
		// the one f16 input where sqrt, rsqrt, rcp, lg2 or ex2 differ
		{"ex2.approx.f16", ptx.Instr{Op: ptx.OpEx2, T: ptx.F16}, 0x11c5, 0x3c01},
	} {
		c.in.Raw = c.name
		got, err := m.evalALU(&c.in, [4]uint64{c.src})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s of %#x = %#x, want %#x", c.name, c.src, got, c.want)
		}
	}
}

// Property: half round trip is exact for every representable half.
func TestHalfRoundTripAllValues(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		f := HalfToF32(uint16(h))
		if f != f { // NaN: payload need not round trip, but NaN must
			back := F32ToHalf(f)
			if HalfToF32(back) == HalfToF32(back) {
				t.Fatalf("NaN %#x did not stay NaN", h)
			}
			continue
		}
		back := F32ToHalf(f)
		if back != uint16(h) {
			// -0 and +0 must round trip separately too
			t.Fatalf("half %#x -> %v -> %#x", h, f, back)
		}
	}
}

// Property: conversion from f32 rounds to nearest even.
func TestHalfRounding(t *testing.T) {
	cases := []struct {
		f    float32
		want uint16
	}{
		{1.0, 0x3C00},
		{-2.0, 0xC000},
		{65504, 0x7BFF},           // max half
		{65520, 0x7C00},           // rounds to +Inf
		{5.960464e-8, 0x0001},     // min subnormal
		{6.103515625e-05, 0x0400}, // min normal
		{0, 0x0000},
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := F32ToHalf(c.f); got != c.want {
			t.Errorf("F32ToHalf(%v) = %#x, want %#x", c.f, got, c.want)
		}
	}
	if got := F32ToHalf(float32(math.NaN())); got&0x7C00 != 0x7C00 || got&0x3FF == 0 {
		t.Errorf("F32ToHalf(NaN) = %#x is not a NaN", got)
	}
}

// The paper's §III-D1 finding: a multiply followed by an add in FP16
// differs from a fused FMA because FMA keeps extra precision between the
// two operations. Both behaviours are intentional in our machine (mul+add
// vs fma); this test pins down that they really diverge.
func TestFP16FMAContractionMismatch(t *testing.T) {
	m := cleanMachine()
	mulIn := &ptx.Instr{Op: ptx.OpMul, T: ptx.F16, Raw: "mul.f16"}
	addIn := &ptx.Instr{Op: ptx.OpAdd, T: ptx.F16, Raw: "add.f16"}
	fmaIn := &ptx.Instr{Op: ptx.OpFma, T: ptx.F16, Raw: "fma.rn.f16"}

	mismatches := 0
	total := 0
	// Scan a grid of half values; contraction differences appear when the
	// product needs bits the f16 intermediate cannot hold.
	for i := 0; i < 200; i++ {
		for j := 0; j < 20; j++ {
			a := uint64(F32ToHalf(float32(i)*0.37 + 0.11))
			b := uint64(F32ToHalf(float32(j)*1.13 - 3.7))
			c := uint64(F32ToHalf(0.625))
			p, err := m.evalALU(mulIn, [4]uint64{a, b})
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.evalALU(addIn, [4]uint64{p, c})
			if err != nil {
				t.Fatal(err)
			}
			f, err := m.evalALU(fmaIn, [4]uint64{a, b, c})
			if err != nil {
				t.Fatal(err)
			}
			total++
			if s != f {
				mismatches++
			}
		}
	}
	if mismatches == 0 {
		t.Fatal("expected FMA contraction to differ from mul+add for some FP16 inputs")
	}
	t.Logf("FP16 mul+add vs fma mismatches: %d/%d", mismatches, total)
}
