package ptx

import (
	"fmt"
	"strings"
)

// FormatInstr renders one instruction as PTX text (with trailing ';').
func FormatInstr(k *Kernel, in *Instr) string {
	var b strings.Builder
	if in.PredReg >= 0 {
		b.WriteByte('@')
		if in.PredNeg {
			b.WriteByte('!')
		}
		b.WriteString(k.RegName(in.PredReg))
		b.WriteByte(' ')
	}
	b.WriteString(in.Op.String())
	writeMods(&b, in)
	b.WriteByte(' ')

	switch in.Op {
	case OpBra:
		b.WriteString(in.Label)
	case OpTex:
		b.WriteString(formatOperand(k, &in.Dst[0]))
		b.WriteString(", [")
		b.WriteString(in.Src[0].Sym)
		b.WriteString(", ")
		b.WriteString(formatOperand(k, &in.Src[1]))
		b.WriteString("]")
	case OpSt:
		parts := make([]string, len(in.Src))
		for i := range in.Src {
			parts[i] = formatOperand(k, &in.Src[i])
		}
		b.WriteString(strings.Join(parts, ", "))
	default:
		var parts []string
		for i := range in.Dst {
			parts = append(parts, formatOperand(k, &in.Dst[i]))
		}
		for i := range in.Src {
			parts = append(parts, formatOperand(k, &in.Src[i]))
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	s := strings.TrimRight(b.String(), " ")
	return s + ";"
}

func writeMods(b *strings.Builder, in *Instr) {
	emit := func(s string) {
		b.WriteByte('.')
		b.WriteString(s)
	}
	if in.Uni {
		emit("uni")
	}
	if in.To {
		emit("to")
	}
	switch in.Space {
	case SpaceGlobal:
		emit("global")
	case SpaceShared:
		emit("shared")
	case SpaceLocal:
		emit("local")
	case SpaceParam:
		emit("param")
	case SpaceConst:
		emit("const")
	}
	if in.Op == OpAtom && in.Atom != AtomNone {
		emit(in.Atom.String())
	}
	if in.Op == OpBar {
		emit("sync")
	}
	if in.Geom == 1 {
		emit("1d")
	}
	if in.Geom == 2 {
		emit("2d")
	}
	if in.Vec == 2 {
		emit("v2")
	}
	if in.Vec == 4 {
		emit("v4")
	}
	if in.Cmp != CmpNone {
		emit(in.Cmp.String())
	}
	if in.Approx {
		emit("approx")
	}
	if in.Rnd != RndNone {
		emit(in.Rnd.String())
	}
	if in.Op == OpCvt && in.T.Float() && in.T2.Float() && in.T.Size() <= in.T2.Size() && in.Rnd == RndNone {
		emit("rn") // float narrowing conversions require a rounding mode
	}
	if in.Op == OpFma {
		emit("rn")
	}
	if (in.Op == OpDiv || in.Op == OpSqrt || in.Op == OpRcp) && in.T.Float() && !in.Approx {
		emit("rn")
	}
	if in.Wide {
		emit("wide")
	}
	if in.Lo {
		emit("lo")
	}
	if in.Hi {
		emit("hi")
	}
	if in.T != TypeNone {
		emit(in.T.String())
	}
	if in.T2 != TypeNone {
		emit(in.T2.String())
	}
}

func formatOperand(k *Kernel, o *Operand) string {
	switch o.Kind {
	case OperandReg:
		return k.RegName(o.Reg)
	case OperandSReg:
		return o.SReg.String()
	case OperandImm:
		if o.FloatImm {
			return fmt.Sprintf("0d%016X", o.Imm)
		}
		return fmt.Sprintf("%d", int64(o.Imm))
	case OperandMem:
		base := o.BaseSym
		if o.Base >= 0 {
			base = k.RegName(o.Base)
		}
		if o.Offset != 0 {
			return fmt.Sprintf("[%s+%d]", base, o.Offset)
		}
		return fmt.Sprintf("[%s]", base)
	case OperandVec:
		parts := make([]string, len(o.Elems))
		for i := range o.Elems {
			parts[i] = formatOperand(k, &o.Elems[i])
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case OperandSym:
		return o.Sym
	}
	return "?"
}
