package exec

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ptx"
)

// BugSet selects deliberately incorrect instruction implementations. The
// zero value is a correct simulator. The paper (§III-D) found and fixed the
// rem and bfe bugs in GPGPU-Sim; re-injecting them lets the debug tooling
// be validated against known-faulty behaviour.
type BugSet struct {
	// RemU64 reproduces the original GPGPU-Sim remainder bug: rem is
	// always evaluated as "src1.u64 % src2.u64" regardless of the type
	// specifier, so signed and 32-bit operands produce wrong results.
	RemU64 bool
	// BFESigned reproduces the bit-field-extract bug: signed extraction
	// omits sign extension (subtly wrong for signed inputs only).
	BFESigned bool
	// BreakOp perturbs the result of one arbitrary opcode (bitwise
	// complement of the result); used to validate that the debug tool
	// localises an arbitrary faulty instruction implementation.
	BreakOp ptx.Op
}

func (b BugSet) broken(op ptx.Op) bool { return b.BreakOp != ptx.OpInvalid && b.BreakOp == op }

// Raw bit conversion helpers. Register values are stored as raw uint64
// bits, exactly like GPGPU-Sim's ptx_reg_t union.

func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }
func bitsF32(b uint64) float32 { return math.Float32frombits(uint32(b)) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
func bitsF64(b uint64) float64 { return math.Float64frombits(b) }

// truncToType masks a raw value down to the storage width of t,
// sign-extending for signed integer types so that comparisons work on the
// full 64-bit pattern.
func truncToType(v uint64, t ptx.Type) uint64 {
	switch t.Size() {
	case 1:
		if t.Signed() {
			return uint64(int64(int8(v)))
		}
		return uint64(uint8(v))
	case 2:
		if t.Signed() {
			return uint64(int64(int16(v)))
		}
		return uint64(uint16(v))
	case 4:
		if t.Signed() {
			return uint64(int64(int32(v)))
		}
		return uint64(uint32(v))
	}
	return v
}

// aluError annotates semantic errors with the instruction text.
func aluError(in *ptx.Instr, format string, args ...interface{}) error {
	return fmt.Errorf("exec: %q: %s", in.Raw, fmt.Sprintf(format, args...))
}

// evalALU computes the result bits for a register-producing instruction
// given up to four source values (raw bits). Memory and control
// instructions are handled by the machine, not here.
func (m *Machine) evalALU(in *ptx.Instr, s [4]uint64) (uint64, error) {
	t := in.T
	var r uint64
	var err error
	switch in.Op {
	case ptx.OpMov:
		r = s[0]
	case ptx.OpAdd:
		r, err = addSubOp(in, t, s[0], s[1], false)
	case ptx.OpSub:
		r, err = addSubOp(in, t, s[0], s[1], true)
	case ptx.OpMul:
		r, err = mulOp(in, t, s[0], s[1])
	case ptx.OpMad:
		r, err = madOp(in, t, s[0], s[1], s[2])
	case ptx.OpFma:
		r, err = fmaOp(in, t, s[0], s[1], s[2])
	case ptx.OpDiv:
		r, err = divOp(in, t, s[0], s[1])
	case ptx.OpRem:
		r, err = m.remOp(in, t, s[0], s[1])
	case ptx.OpAbs:
		r, err = absOp(in, t, s[0])
	case ptx.OpNeg:
		r, err = negOp(in, t, s[0])
	case ptx.OpMin:
		r, err = minMaxOp(in, t, s[0], s[1], true)
	case ptx.OpMax:
		r, err = minMaxOp(in, t, s[0], s[1], false)
	case ptx.OpSqrt:
		r, err = unaryF(in, t, s[0], func(x float64) float64 { return math.Sqrt(x) })
	case ptx.OpRsqrt:
		r, err = unaryF(in, t, s[0], func(x float64) float64 { return 1 / math.Sqrt(x) })
	case ptx.OpRcp:
		r, err = unaryF(in, t, s[0], func(x float64) float64 { return 1 / x })
	case ptx.OpLg2:
		r, err = unaryF(in, t, s[0], math.Log2)
	case ptx.OpEx2:
		r, err = unaryF(in, t, s[0], math.Exp2)
	case ptx.OpSin:
		r, err = unaryF(in, t, s[0], math.Sin)
	case ptx.OpCos:
		r, err = unaryF(in, t, s[0], math.Cos)
	case ptx.OpSetp:
		ok, cerr := compare(in.Cmp, t, s[0], s[1])
		if cerr != nil {
			return 0, aluError(in, "%v", cerr)
		}
		if ok {
			r = 1
		}
	case ptx.OpSelp:
		if s[2] != 0 {
			r = s[0]
		} else {
			r = s[1]
		}
	case ptx.OpSlct:
		// slct.T.T2 d, a, b, c: d = (c >= 0) ? a : b, selector type T2.
		sel := in.T2
		nonNeg := false
		if sel.Float() {
			nonNeg = bitsF32(truncToType(s[2], ptx.F32)) >= 0
		} else {
			nonNeg = int64(truncToType(s[2], ptx.S32)) >= 0
		}
		if nonNeg {
			r = s[0]
		} else {
			r = s[1]
		}
	case ptx.OpAnd:
		r = s[0] & s[1]
	case ptx.OpOr:
		r = s[0] | s[1]
	case ptx.OpXor:
		r = s[0] ^ s[1]
	case ptx.OpNot:
		r = ^s[0]
	case ptx.OpShl:
		r = shiftOp(t, s[0], s[1], true)
	case ptx.OpShr:
		r = shiftOp(t, s[0], s[1], false)
	case ptx.OpBrev:
		// brev.b32/b64: output the bits of the input in reverse order.
		// Introduced in PTX 2.0; used by cuDNN's FFT-based convolutions
		// (§III-B); GPGPU-Sim lacked it before the paper's changes.
		if t.Size() == 8 {
			r = bits.Reverse64(s[0])
		} else {
			r = uint64(bits.Reverse32(uint32(s[0])))
		}
	case ptx.OpBfe:
		r = m.bfeOp(t, s[0], s[1], s[2])
	case ptx.OpBfi:
		r = bfiOp(t, s[0], s[1], s[2], s[3])
	case ptx.OpPopc:
		if t.Size() == 8 {
			r = uint64(bits.OnesCount64(s[0]))
		} else {
			r = uint64(bits.OnesCount32(uint32(s[0])))
		}
	case ptx.OpClz:
		if t.Size() == 8 {
			r = uint64(bits.LeadingZeros64(s[0]))
		} else {
			r = uint64(bits.LeadingZeros32(uint32(s[0])))
		}
	case ptx.OpCvt:
		r, err = cvtOp(in, s[0])
	case ptx.OpCvta:
		// Address-space conversion is a pure arithmetic rebase handled by
		// the machine's address translation; cvta itself is the identity
		// on the raw address bits in our window scheme.
		r = s[0]
	default:
		return 0, aluError(in, "opcode has no ALU semantics")
	}
	if err != nil {
		return 0, err
	}
	if m.bugs.broken(in.Op) {
		r = ^r
	}
	return r, nil
}

func addSubOp(in *ptx.Instr, t ptx.Type, a, b uint64, sub bool) (uint64, error) {
	switch {
	case t == ptx.F32:
		x, y := bitsF32(a), bitsF32(b)
		if sub {
			return f32bits(x - y), nil
		}
		return f32bits(x + y), nil
	case t == ptx.F64:
		x, y := bitsF64(a), bitsF64(b)
		if sub {
			return f64bits(x - y), nil
		}
		return f64bits(x + y), nil
	case t == ptx.F16:
		x, y := HalfToF32(uint16(a)), HalfToF32(uint16(b))
		if sub {
			return uint64(F32ToHalf(x - y)), nil
		}
		return uint64(F32ToHalf(x + y)), nil
	case t.Integer():
		if sub {
			return truncToType(uint64(int64(a)-int64(b)), t), nil
		}
		return truncToType(uint64(int64(a)+int64(b)), t), nil
	}
	return 0, aluError(in, "bad type %v for arithmetic", t)
}

func mulOp(in *ptx.Instr, t ptx.Type, a, b uint64) (uint64, error) {
	switch {
	case t == ptx.F32:
		return f32bits(bitsF32(a) * bitsF32(b)), nil
	case t == ptx.F64:
		return f64bits(bitsF64(a) * bitsF64(b)), nil
	case t == ptx.F16:
		return uint64(F32ToHalf(HalfToF32(uint16(a)) * HalfToF32(uint16(b)))), nil
	case t.Integer():
		switch {
		case in.Wide:
			if t.Signed() {
				return uint64(int64(int32(a)) * int64(int32(b))), nil
			}
			return uint64(uint32(a)) * uint64(uint32(b)), nil
		case in.Hi:
			if t.Size() == 8 {
				if t.Signed() {
					hi, _ := bits.Mul64(a, b)
					// adjust for signedness
					if int64(a) < 0 {
						hi -= b
					}
					if int64(b) < 0 {
						hi -= a
					}
					return hi, nil
				}
				hi, _ := bits.Mul64(a, b)
				return hi, nil
			}
			if t.Signed() {
				p := int64(int32(a)) * int64(int32(b))
				return truncToType(uint64(p>>32), t), nil
			}
			p := uint64(uint32(a)) * uint64(uint32(b))
			return uint64(uint32(p >> 32)), nil
		default: // .lo or 64-bit
			return truncToType(uint64(int64(a)*int64(b)), t), nil
		}
	}
	return 0, aluError(in, "bad type %v for mul", t)
}

func madOp(in *ptx.Instr, t ptx.Type, a, b, c uint64) (uint64, error) {
	if t.Float() {
		return fmaOp(in, t, a, b, c)
	}
	if in.Wide {
		if t.Signed() {
			return uint64(int64(int32(a))*int64(int32(b)) + int64(c)), nil
		}
		return uint64(uint32(a))*uint64(uint32(b)) + c, nil
	}
	p, err := mulOp(in, t, a, b)
	if err != nil {
		return 0, err
	}
	return truncToType(uint64(int64(p)+int64(c)), t), nil
}

// fmaF32 is fma.rn.f32, rounded once (see fmaF32Fast).
func fmaF32(a, b, c uint64) uint64 {
	if r, ok := fmaF32Fast(a, b, c); ok {
		return r
	}
	return f32bits(float32(addOdd(float64(bitsF32(a))*float64(bitsF32(b)), float64(bitsF32(c)))))
}

// fmaF32Fast is fmaF32 through math.FMA, small enough to inline into the
// per-lane loops. x·y is exact in float64, so the float64 sum rounds to
// float32 as the exact sum does unless it is a float32 midpoint (low 29
// bits 1<<28) or non-zero below float32's normal range (2^-126, biased
// exponent 897; the unsigned compare wraps zero to the top): ok is false
// there, and fmaF32 rounds the sum to odd at 53 bits first.
func fmaF32Fast(a, b, c uint64) (r uint64, ok bool) {
	s := math.FMA(float64(bitsF32(a)), float64(bitsF32(b)), float64(bitsF32(c)))
	bits := math.Float64bits(s)
	return f32bits(float32(s)), bits&(1<<29-1) != 1<<28 && bits<<1-1 >= 897<<53-1
}

// addOdd is x+y rounded to odd (Boldo and Melquiond, IEEE TC 2008): when
// TwoSum's error e is non-zero, an even sum moves one ulp toward x+y.
func addOdd(x, y float64) float64 {
	s := x + y
	v := s - x
	if e := (x - (s - v)) + (y - v); math.Float64bits(s)&1 == 0 && (e < 0 || e > 0) {
		return math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return s
}

// f32Odd is x rounded to odd at float32's precision.
func f32Odd(x float64) float32 {
	f := float32(x)
	if e := x - float64(f); math.Float32bits(f)&1 == 0 && (e < 0 || e > 0) {
		return math.Nextafter32(f, float32(math.Copysign(math.Inf(1), e)))
	}
	return f
}

func fmaOp(in *ptx.Instr, t ptx.Type, a, b, c uint64) (uint64, error) {
	switch t {
	case ptx.F32:
		return fmaF32(a, b, c), nil
	case ptx.F64:
		return f64bits(math.FMA(bitsF64(a), bitsF64(b), bitsF64(c))), nil
	case ptx.F16:
		// FMA keeps full precision between the multiply and the add (its
		// float64 and float32 steps round to odd); only the result rounds to
		// f16. This extra precision caused the paper's FP16 mismatch (§III-D1).
		x := float64(HalfToF32(uint16(a)))
		y := float64(HalfToF32(uint16(b)))
		z := float64(HalfToF32(uint16(c)))
		return uint64(F32ToHalf(f32Odd(addOdd(x*y, z)))), nil
	}
	return 0, aluError(in, "bad type %v for fma", t)
}

func divOp(in *ptx.Instr, t ptx.Type, a, b uint64) (uint64, error) {
	switch {
	case t == ptx.F32:
		return f32bits(bitsF32(a) / bitsF32(b)), nil
	case t == ptx.F64:
		return f64bits(bitsF64(a) / bitsF64(b)), nil
	case t == ptx.F16:
		return uint64(F32ToHalf(HalfToF32(uint16(a)) / HalfToF32(uint16(b)))), nil
	case t.Integer():
		if b == 0 {
			// PTX integer division by zero yields an unspecified value on
			// hardware; GPGPU-Sim returns all-ones. We match GPGPU-Sim.
			return truncToType(^uint64(0), t), nil
		}
		if t.Signed() {
			return truncToType(uint64(int64(a)/int64(b)), t), nil
		}
		switch t.Size() {
		case 8:
			return a / b, nil
		default:
			return truncToType(uint64(uint32(a)/uint32(b)), t), nil
		}
	}
	return 0, aluError(in, "bad type %v for div", t)
}

// remOp implements the remainder instruction. With Bugs.RemU64 set it
// reproduces GPGPU-Sim's original "data.u64 = src1.u64 % src2.u64"
// implementation that the paper's debug flow tracked down inside
// fft2d_r2c_32x32 (§III-D); otherwise it switches on the type specifier.
func (m *Machine) remOp(in *ptx.Instr, t ptx.Type, a, b uint64) (uint64, error) {
	if m.bugs.RemU64 {
		if b == 0 {
			return ^uint64(0), nil
		}
		return a % b, nil // type-oblivious: the injected bug
	}
	switch {
	case t == ptx.F32:
		return f32bits(float32(math.Mod(float64(bitsF32(a)), float64(bitsF32(b))))), nil
	case t.Integer():
		if b == 0 {
			return truncToType(^uint64(0), t), nil
		}
		if t.Signed() {
			switch t.Size() {
			case 8:
				return uint64(int64(a) % int64(b)), nil
			default:
				return truncToType(uint64(int64(int32(a))%int64(int32(b))), t), nil
			}
		}
		switch t.Size() {
		case 8:
			return a % b, nil
		default:
			return truncToType(uint64(uint32(a)%uint32(b)), t), nil
		}
	}
	return 0, aluError(in, "bad type %v for rem", t)
}

func absOp(in *ptx.Instr, t ptx.Type, a uint64) (uint64, error) {
	switch {
	case t == ptx.F32:
		return f32bits(float32(math.Abs(float64(bitsF32(a))))), nil
	case t == ptx.F64:
		return f64bits(math.Abs(bitsF64(a))), nil
	case t.Integer():
		v := int64(truncToType(a, t))
		if v < 0 {
			v = -v
		}
		return truncToType(uint64(v), t), nil
	}
	return 0, aluError(in, "bad type %v for abs", t)
}

func negOp(in *ptx.Instr, t ptx.Type, a uint64) (uint64, error) {
	switch {
	case t == ptx.F32:
		return f32bits(-bitsF32(a)), nil
	case t == ptx.F64:
		return f64bits(-bitsF64(a)), nil
	case t == ptx.F16:
		return uint64(uint16(a) ^ 0x8000), nil
	case t.Integer():
		return truncToType(uint64(-int64(a)), t), nil
	}
	return 0, aluError(in, "bad type %v for neg", t)
}

func minMaxOp(in *ptx.Instr, t ptx.Type, a, b uint64, isMin bool) (uint64, error) {
	switch {
	case t == ptx.F32:
		x, y := bitsF32(a), bitsF32(b)
		// PTX min/max: if one input is NaN the other is returned.
		if x != x {
			return f32bits(y), nil
		}
		if y != y {
			return f32bits(x), nil
		}
		if (x < y) == isMin {
			return f32bits(x), nil
		}
		return f32bits(y), nil
	case t == ptx.F64:
		x, y := bitsF64(a), bitsF64(b)
		if x != x {
			return f64bits(y), nil
		}
		if y != y {
			return f64bits(x), nil
		}
		if (x < y) == isMin {
			return f64bits(x), nil
		}
		return f64bits(y), nil
	case t.Integer():
		if t.Signed() {
			x, y := int64(truncToType(a, t)), int64(truncToType(b, t))
			if (x < y) == isMin {
				return truncToType(uint64(x), t), nil
			}
			return truncToType(uint64(y), t), nil
		}
		x, y := truncToType(a, t), truncToType(b, t)
		if (x < y) == isMin {
			return x, nil
		}
		return y, nil
	}
	return 0, aluError(in, "bad type %v for min/max", t)
}

func unaryF(in *ptx.Instr, t ptx.Type, a uint64, f func(float64) float64) (uint64, error) {
	switch t {
	case ptx.F32:
		return f32bits(float32(f(float64(bitsF32(a))))), nil
	case ptx.F64:
		return f64bits(f(bitsF64(a))), nil
	case ptx.F16:
		return uint64(F32ToHalf(f32Odd(f(float64(HalfToF32(uint16(a))))))), nil
	}
	return 0, aluError(in, "bad type %v for unary float op", t)
}

func shiftOp(t ptx.Type, a, b uint64, left bool) uint64 {
	width := uint64(t.Size()) * 8
	sh := b
	if sh > width {
		sh = width
	}
	if left {
		if sh >= width {
			return 0
		}
		return truncToType(a<<sh, t)
	}
	if t.Signed() {
		if sh >= width {
			sh = width - 1
		}
		return truncToType(uint64(int64(truncToType(a, t))>>sh), t)
	}
	if sh >= width {
		return 0
	}
	return truncToType(a, t) >> sh
}

// bfeOp implements bit-field extract per the PTX spec. With Bugs.BFESigned
// set, signed extraction skips sign extension, reproducing the subtle
// signed-input errors the paper found via differential coverage analysis.
func (m *Machine) bfeOp(t ptx.Type, a, b, c uint64) uint64 {
	pos := b & 0xFF
	length := c & 0xFF
	width := uint64(t.Size()) * 8
	if pos > width {
		pos = width
	}
	if length > width {
		length = width
	}
	var field uint64
	if length > 0 && pos < width {
		field = (a >> pos) & (^uint64(0) >> (64 - length))
	}
	if t.Signed() && !m.bugs.BFESigned && length > 0 && length < 64 {
		// Sign bit of the extracted field: bit min(pos+len-1, width-1) of a.
		sb := pos + length - 1
		if sb > width-1 {
			sb = width - 1
		}
		if a>>sb&1 == 1 {
			field |= ^uint64(0) << length
		}
	}
	return truncToType(field, t)
}

func bfiOp(t ptx.Type, a, b, c, d uint64) uint64 {
	pos := c & 0xFF
	length := d & 0xFF
	width := uint64(t.Size()) * 8
	if length == 0 || pos >= width {
		return truncToType(b, t)
	}
	if length > width-pos {
		length = width - pos
	}
	mask := (^uint64(0) >> (64 - length)) << pos
	return truncToType((b&^mask)|((a<<pos)&mask), t)
}

func cvtOp(in *ptx.Instr, a uint64) (uint64, error) {
	dst, src := in.T, in.T2
	if src == ptx.TypeNone {
		src = dst
	}
	// Load source as float64 or int64 view.
	switch {
	case src.Float() && dst.Float():
		var v float64
		switch src {
		case ptx.F16:
			v = float64(HalfToF32(uint16(a)))
		case ptx.F32:
			v = float64(bitsF32(a))
		default:
			v = bitsF64(a)
		}
		v = roundIfInt(in.Rnd, v)
		switch dst {
		case ptx.F16:
			return uint64(F32ToHalf(f32Odd(v))), nil
		case ptx.F32:
			return f32bits(float32(v)), nil
		default:
			return f64bits(v), nil
		}
	case src.Float() && dst.Integer():
		var v float64
		switch src {
		case ptx.F16:
			v = float64(HalfToF32(uint16(a)))
		case ptx.F32:
			v = float64(bitsF32(a))
		default:
			v = bitsF64(a)
		}
		switch in.Rnd {
		case ptx.RndNearestInt:
			v = math.RoundToEven(v)
		case ptx.RndDownInt:
			v = math.Floor(v)
		case ptx.RndUpInt:
			v = math.Ceil(v)
		default: // rzi and unspecified: truncate
			v = math.Trunc(v)
		}
		if dst.Signed() {
			return truncToType(uint64(int64(v)), dst), nil
		}
		if v < 0 {
			v = 0
		}
		return truncToType(uint64(v), dst), nil
	case src.Integer() && dst.Float():
		var v float64
		if src.Signed() {
			v = float64(int64(truncToType(a, src)))
		} else {
			v = float64(truncToType(a, src))
		}
		switch dst {
		case ptx.F16:
			return uint64(F32ToHalf(float32(v))), nil
		case ptx.F32:
			return f32bits(float32(v)), nil
		default:
			return f64bits(v), nil
		}
	default: // int <-> int
		// Sign/zero extend from the source width, then truncate to dst.
		return truncToType(truncToType(a, src), dst), nil
	}
}

func roundIfInt(r ptx.RndMode, v float64) float64 {
	switch r {
	case ptx.RndNearestInt:
		return math.RoundToEven(v)
	case ptx.RndZeroInt:
		return math.Trunc(v)
	case ptx.RndDownInt:
		return math.Floor(v)
	case ptx.RndUpInt:
		return math.Ceil(v)
	}
	return v
}

// intCmp evaluates one of the six ordering comparisons on integers already
// extended to 64 bits; ok is false for any other operator.
func intCmp[T int64 | uint64](c ptx.CmpOp, x, y T) (res, ok bool) {
	switch c {
	case ptx.CmpEq:
		return x == y, true
	case ptx.CmpNe:
		return x != y, true
	case ptx.CmpLt:
		return x < y, true
	case ptx.CmpLe:
		return x <= y, true
	case ptx.CmpGt:
		return x > y, true
	case ptx.CmpGe:
		return x >= y, true
	}
	return false, false
}

// unsignedCmp maps lo/ls/hi/hs, which compare unsigned whatever the type
// specifier says, to their ordering equivalents (CmpNone for the rest).
func unsignedCmp(c ptx.CmpOp) ptx.CmpOp {
	switch c {
	case ptx.CmpLo:
		return ptx.CmpLt
	case ptx.CmpLs:
		return ptx.CmpLe
	case ptx.CmpHi:
		return ptx.CmpGt
	case ptx.CmpHs:
		return ptx.CmpGe
	}
	return ptx.CmpNone
}

// compare evaluates a setp comparison on raw bits of type t.
func compare(c ptx.CmpOp, t ptx.Type, a, b uint64) (bool, error) {
	if t.Float() {
		var x, y float64
		switch t {
		case ptx.F16:
			x, y = float64(HalfToF32(uint16(a))), float64(HalfToF32(uint16(b)))
		case ptx.F32:
			x, y = float64(bitsF32(a)), float64(bitsF32(b))
		default:
			x, y = bitsF64(a), bitsF64(b)
		}
		nan := x != x || y != y
		switch c {
		case ptx.CmpEq:
			return !nan && x == y, nil
		case ptx.CmpNe:
			return !nan && x != y, nil
		case ptx.CmpLt:
			return !nan && x < y, nil
		case ptx.CmpLe:
			return !nan && x <= y, nil
		case ptx.CmpGt:
			return !nan && x > y, nil
		case ptx.CmpGe:
			return !nan && x >= y, nil
		case ptx.CmpEqu:
			return nan || x == y, nil
		case ptx.CmpNeu:
			return nan || x != y, nil
		case ptx.CmpLtu:
			return nan || x < y, nil
		case ptx.CmpLeu:
			return nan || x <= y, nil
		case ptx.CmpGtu:
			return nan || x > y, nil
		case ptx.CmpGeu:
			return nan || x >= y, nil
		case ptx.CmpNum:
			return !nan, nil
		case ptx.CmpNan:
			return nan, nil
		}
		return false, fmt.Errorf("bad float comparison %v", c)
	}
	if u := unsignedCmp(c); u != ptx.CmpNone {
		res, _ := intCmp(u, truncUnsigned(a, t), truncUnsigned(b, t))
		return res, nil
	}
	if t.Signed() {
		res, ok := intCmp(c, int64(truncToType(a, t)), int64(truncToType(b, t)))
		if !ok {
			return false, fmt.Errorf("bad signed comparison %v", c)
		}
		return res, nil
	}
	res, ok := intCmp(c, truncUnsigned(a, t), truncUnsigned(b, t))
	if !ok {
		return false, fmt.Errorf("bad unsigned comparison %v", c)
	}
	return res, nil
}

func truncUnsigned(v uint64, t ptx.Type) uint64 {
	switch t.Size() {
	case 1:
		return uint64(uint8(v))
	case 2:
		return uint64(uint16(v))
	case 4:
		return uint64(uint32(v))
	}
	return v
}
