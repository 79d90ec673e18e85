package exec

import (
	"math/bits"

	"repro/internal/ptx"
)

// Warp-wide execution of register-producing instructions. Each handler is
// one loop over the 32-lane register rows: every lane when the execution
// mask is full, the set bits otherwise (written out per handler — a loop
// taking the scalar kernel as a func value does not inline it). Lanes
// outside the mask are never written. The scalar evalALU (alu.go) stays
// the single definition of what an instruction computes — hgeneric calls
// it per lane, and every specialised loop below is held to it bit for bit
// by TestSpecialisedMatchesScalar.

const fullMask = ^uint32(0)

// lane pops the lowest set lane of a non-zero mask. The &31 lets the
// compiler drop the bounds check on row indexing.
func lane(mask uint32) int { return bits.TrailingZeros32(mask) & (WarpSize - 1) }

// rowOf returns the 32 lanes a source code reads: a constant row or a
// register row (special registers are materialised by stepALUSreg).
func (p *program) rowOf(code int32, regs []uint64) *row {
	if code >= 0 {
		return (*row)(regs[code:])
	}
	return p.consts[^code]
}

// stepALU executes d, the instruction at pc.
func (m *Machine) stepALU(c *CTA, w *Warp, pc int, d *instr, mask uint32) error {
	if d.flags&fSRegs != 0 {
		return m.stepALUSreg(c, w, pc, d, mask)
	}
	p, regs := c.Grid.prog, w.Regs
	return m.execALU(c.Grid, pc, d, (*row)(regs[d.dst[0]:]),
		p.rowOf(d.src[0], regs), p.rowOf(d.src[1], regs), p.rowOf(d.src[2], regs), p.rowOf(d.src[3], regs), mask)
}

// stepALUSreg is stepALU for instructions that read special registers:
// %tid, %ctaid, %clock and friends are computed once per warp instruction
// into scratch rows. It is a separate function so that only these
// instructions pay for the scratch.
func (m *Machine) stepALUSreg(c *CTA, w *Warp, pc int, d *instr, mask uint32) error {
	var scratch [4]row
	var rows [4]*row
	for i, code := range d.src {
		if s, ok := sregOf(code); ok {
			sregRow(c, w, s, &scratch[i])
			rows[i] = &scratch[i]
		} else {
			rows[i] = c.Grid.prog.rowOf(code, w.Regs)
		}
	}
	return m.execALU(c.Grid, pc, d, (*row)(w.Regs[d.dst[0]:]), rows[0], rows[1], rows[2], rows[3], mask)
}

// execALU runs d's handler, the instruction at pc of g's kernel, over the
// lanes in mask: dst = f(a, b, c, e).
func (m *Machine) execALU(g *Grid, pc int, d *instr, dst, a, b, c, e *row, mask uint32) error {
	switch d.h {
	case hmov:
		if mask == fullMask {
			for l := range dst {
				dst[l] = a[l]
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = a[l]
		}
	case hadd32u:
		if mask == fullMask {
			for l := range dst {
				dst[l] = zext32(a[l] + b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = zext32(a[l] + b[l])
		}
	case hadd64:
		if mask == fullMask {
			for l := range dst {
				dst[l] = a[l] + b[l]
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = a[l] + b[l]
		}
	case hmul32u:
		if mask == fullMask {
			for l := range dst {
				dst[l] = zext32(a[l] * b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = zext32(a[l] * b[l])
		}
	case hmulwideu:
		if mask == fullMask {
			for l := range dst {
				dst[l] = zext32(a[l]) * zext32(b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = zext32(a[l]) * zext32(b[l])
		}
	case hmad32s:
		if mask == fullMask {
			for l := range dst {
				dst[l] = sext32(a[l]*b[l] + c[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = sext32(a[l]*b[l] + c[l])
		}
	case hand:
		if mask == fullMask {
			for l := range dst {
				dst[l] = a[l] & b[l]
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = a[l] & b[l]
		}
	case hshl32u:
		if mask == fullMask {
			for l := range dst {
				dst[l] = shl32(a[l], b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = shl32(a[l], b[l])
		}
	case hshr32u:
		if mask == fullMask {
			for l := range dst {
				dst[l] = shr32(a[l], b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = shr32(a[l], b[l])
		}
	case haddf32:
		if mask == fullMask {
			for l := range dst {
				dst[l] = f32bits(bitsF32(a[l]) + bitsF32(b[l]))
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = f32bits(bitsF32(a[l]) + bitsF32(b[l]))
		}
	case hsubf32:
		if mask == fullMask {
			for l := range dst {
				dst[l] = f32bits(bitsF32(a[l]) - bitsF32(b[l]))
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = f32bits(bitsF32(a[l]) - bitsF32(b[l]))
		}
	case hmulf32:
		if mask == fullMask {
			for l := range dst {
				dst[l] = f32bits(bitsF32(a[l]) * bitsF32(b[l]))
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = f32bits(bitsF32(a[l]) * bitsF32(b[l]))
		}
	case hdivf32:
		if mask == fullMask {
			for l := range dst {
				dst[l] = f32bits(bitsF32(a[l]) / bitsF32(b[l]))
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = f32bits(bitsF32(a[l]) / bitsF32(b[l]))
		}
	case hfmaf32:
		if mask == fullMask {
			for l := range dst {
				r, ok := fmaF32Fast(a[l], b[l], c[l])
				if !ok {
					r = fmaF32(a[l], b[l], c[l])
				}
				dst[l] = r
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			r, ok := fmaF32Fast(a[l], b[l], c[l])
			if !ok {
				r = fmaF32(a[l], b[l], c[l])
			}
			dst[l] = r
		}
	case hsetpu32:
		cmp := d.cmp
		if mask == fullMask {
			for l := range dst {
				dst[l] = setpU32(cmp, a[l], b[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = setpU32(cmp, a[l], b[l])
		}
	case hselp:
		if mask == fullMask {
			for l := range dst {
				dst[l] = selp(a[l], b[l], c[l])
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = selp(a[l], b[l], c[l])
		}
	case hcvtf32u32:
		if mask == fullMask {
			for l := range dst {
				dst[l] = f32bits(float32(float64(uint32(a[l]))))
			}
			break
		}
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			dst[l] = f32bits(float32(float64(uint32(a[l]))))
		}
	default: // hgeneric
		in := &g.Kernel.Instrs[pc]
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			r, err := m.evalALU(in, [4]uint64{a[l], b[l], c[l], e[l]})
			if err != nil {
				return err
			}
			dst[l] = r
		}
	}
	return nil
}

func sext32(v uint64) uint64 { return uint64(int64(int32(v))) }
func zext32(v uint64) uint64 { return uint64(uint32(v)) }

// shl32 and shr32 are the 32-bit logical shifts before the result is
// extended: a count of 32 or more (the whole register is the count)
// shifts everything out.
func shl32(v, sh uint64) uint64 {
	if sh >= 32 {
		return 0
	}
	return zext32(v << sh)
}

func shr32(v, sh uint64) uint64 {
	if sh >= 32 {
		return 0
	}
	return zext32(v) >> sh
}

func selp(a, b, p uint64) uint64 {
	if p != 0 {
		return a
	}
	return b
}

// setpU32 produces the predicate bit of an ordering comparison on the
// low 32 bits (the decoder has already checked c is one).
func setpU32(c ptx.CmpOp, a, b uint64) uint64 {
	if r, _ := intCmp(c, zext32(a), zext32(b)); r {
		return 1
	}
	return 0
}
