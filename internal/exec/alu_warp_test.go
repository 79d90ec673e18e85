package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ptx"
)

// Reg reads a register slot for one lane.
func (w *Warp) Reg(slot, lane int) uint64 { return w.Regs[slot*WarpSize+lane] }

// SetReg writes a register slot for one lane.
func (w *Warp) SetReg(slot, lane int, v uint64) { w.Regs[slot*WarpSize+lane] = v }

// Register slots of the one-instruction kernels the differential test runs.
const (
	slotDst = iota
	slotA
	slotB
	slotC
	slotE
	slotPred
	numTestSlots
)

// edgeOperands are the values integer and float semantics tend to get
// wrong: zero, ±1, the extreme integers of both widths, shift counts at
// and beyond the operand width, and the f32/f64 specials.
var edgeOperands = []uint64{
	0, 1, 2, ^uint64(0), // -1
	0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFFFFFFF80000000, // int32 extremes, raw and sign-extended
	0x7FFFFFFFFFFFFFFF, 0x8000000000000000, // int64 extremes
	31, 32, 33, 63, 64, 65, 1 << 40, // shift counts around the width
	uint64(math.Float32bits(1)), uint64(math.Float32bits(-1.5)), uint64(math.Float32bits(float32(math.Inf(1)))),
	uint64(math.Float32bits(float32(math.Inf(-1)))), uint64(math.Float32bits(float32(math.NaN()))),
	0x80000000 /* -0 */, 1 /* smallest f32 denormal */, 0x007FFFFF, /* largest f32 denormal */
	uint64(math.Float32bits(math.MaxFloat32)), uint64(math.Float32bits(3.5)),
	math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), math.Float64bits(-2.25),
}

var guardMasks = []uint32{
	fullMask,               // full
	0x0000FFFF, 0xAAAAAAAA, // partial
	0x80000001, 0x7FFFFFFF,
	1, 1 << 17, 1 << 31, // single lane
	0, // empty
}

// aluInstr builds "[@p] op.mods dst, a, b, c, e" over the test slots with
// as many sources as the opcode takes.
func aluInstr(in ptx.Instr) ptx.Instr {
	in.PredReg, in.Vec, in.Target, in.RPC = slotPred, 1, -1, -1
	in.Dst = []ptx.Operand{{Kind: ptx.OperandReg, Reg: slotDst}}
	for i := 0; i < int(aluSources[in.Op]); i++ {
		in.Src = append(in.Src, ptx.Operand{Kind: ptx.OperandReg, Reg: slotA + i})
	}
	in.Raw = fmt.Sprintf("%v.%v.%v(wide=%v hi=%v cmp=%v rnd=%v)", in.Op, in.T, in.T2, in.Wide, in.Hi, in.Cmp, in.Rnd)
	return in
}

// candidates enumerates every (op, type, modifier) shape the decoder could
// specialise; the test keeps those it actually does.
func candidates() []ptx.Instr {
	var out []ptx.Instr
	for op := ptx.Op(1); int(op) < ptx.OpLimit; op++ {
		if aluSources[op] == 0 {
			continue
		}
		for t := ptx.TypeNone; int(t) < ptx.TypeLimit; t++ {
			base := ptx.Instr{Op: op, T: t}
			switch op {
			case ptx.OpSetp:
				for c := ptx.CmpEq; c <= ptx.CmpNan; c++ {
					in := base
					in.Cmp = c
					out = append(out, aluInstr(in))
				}
			case ptx.OpCvt:
				for t2 := ptx.TypeNone; int(t2) < ptx.TypeLimit; t2++ {
					for r := ptx.RndNone; r <= ptx.RndUpInt; r++ {
						in := base
						in.T2, in.Rnd = t2, r
						out = append(out, aluInstr(in))
					}
				}
			case ptx.OpMul, ptx.OpMad:
				for _, mod := range []struct{ wide, hi, lo bool }{{}, {lo: true}, {wide: true}, {hi: true}} {
					in := base
					in.Wide, in.Hi, in.Lo = mod.wide, mod.hi, mod.lo
					out = append(out, aluInstr(in))
				}
			default:
				out = append(out, aluInstr(base))
			}
		}
	}
	return out
}

// oneInstrWarp lowers a kernel holding just in on m and returns a fresh
// warp about to execute it.
func oneInstrWarp(t *testing.T, m *Machine, in ptx.Instr) (*CTA, *Warp, *decoded) {
	t.Helper()
	k := &ptx.Kernel{Name: "one", NumSlots: numTestSlots, Instrs: []ptx.Instr{in}}
	g, err := m.NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := g.InitCTA(0)
	return c, c.Warps[0], &g.prog.code[0]
}

// TestSpecialisedMatchesScalar pins every hand-specialised warp loop to
// the scalar evalALU: for each instruction shape the decoder specialises,
// edge and random operands under full, partial, single-lane and empty
// guard masks and every BugSet setting must give, in the active lanes, the
// bits 32 evalALU calls give, and leave the other lanes alone.
func TestSpecialisedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	operand := func() uint64 {
		if rng.Intn(2) == 0 {
			return edgeOperands[rng.Intn(len(edgeOperands))]
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	clean := cleanMachine()
	seen := make(map[handler]bool)
	for _, in := range candidates() {
		_, _, d := oneInstrWarp(t, clean, in)
		if d.h <= hgeneric {
			continue // not specialised (or a deferred error): evalALU runs it
		}
		seen[d.h] = true
		bugSets := []BugSet{{}, {RemU64: true}, {BFESigned: true}, {BreakOp: in.Op}, {BreakOp: ptx.OpBrev}}
		for _, bugs := range bugSets {
			m := NewMachine(Config{Bugs: bugs}, nil, nil)
			for _, alias := range []bool{false, true} {
				in := in
				if alias {
					in.Dst = []ptx.Operand{in.Src[0]} // add %r1, %r1, …
				}
				c, w, d := oneInstrWarp(t, m, in)
				if broken := bugs.broken(in.Op); (d.h == hgeneric) != broken {
					t.Fatalf("%s under %+v: handler %d", in.Raw, bugs, d.h)
				}
				dstSlot := in.Dst[0].Reg
				// every pair of edge operands once, then random fill
				rounds := (len(edgeOperands)*len(edgeOperands) + WarpSize - 1) / WarpSize
				for round := 0; round < rounds+8; round++ {
					for l := 0; l < WarpSize; l++ {
						a, b := operand(), operand()
						if i := round*WarpSize + l; round < rounds && i < len(edgeOperands)*len(edgeOperands) {
							a, b = edgeOperands[i/len(edgeOperands)], edgeOperands[i%len(edgeOperands)]
						}
						w.SetReg(slotDst, l, 0xDEAD0000+uint64(l))
						w.SetReg(slotA, l, a)
						w.SetReg(slotB, l, b)
						w.SetReg(slotC, l, operand())
						w.SetReg(slotE, l, operand())
					}
					before := append([]uint64(nil), w.Regs...)
					mask := guardMasks[round%len(guardMasks)]
					for l := 0; l < WarpSize; l++ {
						w.SetReg(slotPred, l, uint64(mask>>l&1))
					}
					w.Stack[0].PC, w.Done = 0, false
					var info StepInfo
					if err := m.StepWarp(c, w, m.cov, &info); err != nil {
						t.Fatalf("%s: %v", in.Raw, err)
					}
					if info.ActiveMask != mask {
						t.Fatalf("%s: active mask %#x, want %#x", in.Raw, info.ActiveMask, mask)
					}
					for l := 0; l < WarpSize; l++ {
						want := before[dstSlot*WarpSize+l]
						if mask>>l&1 != 0 {
							var s [4]uint64
							for i := range in.Src {
								s[i] = before[(slotA+i)*WarpSize+l]
							}
							var err error
							if want, err = m.evalALU(&in, s); err != nil {
								t.Fatalf("%s: scalar reference: %v", in.Raw, err)
							}
						}
						got := w.Reg(dstSlot, l)
						if mask>>l&1 != 0 && anyNaNPayload(&in, before, l) && isNaN32(got) && isNaN32(want) {
							continue
						}
						if got != want {
							t.Fatalf("%s under %+v mask %#x lane %d: a=%#x b=%#x c=%#x: got %#x, scalar %#x",
								in.Raw, bugs, mask, l, before[slotA*WarpSize+l], before[slotB*WarpSize+l],
								before[slotC*WarpSize+l], got, want)
						}
					}
				}
			}
		}
	}
	for h := hgeneric + 1; h < numHandlers; h++ {
		if !seen[h] {
			t.Errorf("handler %d is never selected by the decoder", h)
		}
	}
}

func isNaN32(bits uint64) bool { f := bitsF32(bits); return f != f }

// anyNaNPayload reports whether lane l feeds two or more NaNs to a
// commutative f32 operation. The hardware takes the payload of the result
// from whichever NaN is the first operand of the machine instruction, and
// the compiler may order the operands of a commutative float operation
// either way at each place it is inlined — PTX leaves the payload
// unspecified too — so for those inputs only NaN-ness can be compared.
func anyNaNPayload(in *ptx.Instr, regs []uint64, l int) bool {
	if in.T != ptx.F32 || (in.Op != ptx.OpAdd && in.Op != ptx.OpMul && in.Op != ptx.OpFma && in.Op != ptx.OpMad) {
		return false
	}
	nans := 0
	for i := range in.Src {
		if isNaN32(regs[(slotA+i)*WarpSize+l]) {
			nans++
		}
	}
	return nans >= 2
}

// TestImmediatesDecodeToOperandType checks that a constant row holds what
// the scalar path would read for the same immediate: float literals are
// narrowed to the instruction's type, integer literals pass through.
func TestImmediatesDecodeToOperandType(t *testing.T) {
	m := cleanMachine()
	for _, tc := range []struct {
		in   ptx.Instr
		imm  ptx.Operand
		a    uint64
		want uint64
	}{
		{ptx.Instr{Op: ptx.OpAdd, T: ptx.F32}, ptx.Operand{Kind: ptx.OperandImm, Imm: math.Float64bits(0.5), FloatImm: true},
			uint64(math.Float32bits(1.25)), uint64(math.Float32bits(1.75))},
		{ptx.Instr{Op: ptx.OpAdd, T: ptx.S32}, ptx.Operand{Kind: ptx.OperandImm, Imm: sneg(-3)}, 1, sneg(-2)},
		{ptx.Instr{Op: ptx.OpMul, T: ptx.U32, Wide: true}, ptx.Operand{Kind: ptx.OperandImm, Imm: 4}, 0xFFFFFFFF, 0x3FFFFFFFC},
		{ptx.Instr{Op: ptx.OpSetp, T: ptx.U32, Cmp: ptx.CmpGe}, ptx.Operand{Kind: ptx.OperandImm, Imm: 7}, 7, 1},
	} {
		in := aluInstr(tc.in)
		in.PredReg = -1
		in.Src[1] = tc.imm
		c, w, _ := oneInstrWarp(t, m, in)
		for l := 0; l < WarpSize; l++ {
			w.SetReg(slotA, l, tc.a)
		}
		var info StepInfo
		if err := m.StepWarp(c, w, m.cov, &info); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < WarpSize; l++ {
			if got := w.Reg(slotDst, l); got != tc.want {
				t.Fatalf("%s lane %d: got %#x, want %#x", in.Raw, l, got, tc.want)
			}
		}
	}
}

// TestSregRow checks the carry-propagating thread coordinates against the
// closed forms for block shapes whose rows do and do not divide a warp.
func TestSregRow(t *testing.T) {
	for _, block := range []Dim3{{X: 32}, {X: 128}, {X: 5, Y: 3, Z: 4}, {X: 16, Y: 16}, {X: 1, Y: 1, Z: 64}, {X: 33, Y: 2}, {X: 7}} {
		g := &Grid{GridDim: Dim3{X: 3, Y: 2, Z: 2}, BlockDim: block}
		c := &CTA{Grid: g, Index: 7}
		bx, by := max(block.X, 1), max(block.Y, 1)
		for id := 0; id < g.NumWarpsPerCTA(); id++ {
			w := &Warp{ID: id, InstrCount: 99}
			want := map[ptx.SReg]func(lin int) uint64{
				ptx.SRegTidX:    func(lin int) uint64 { return uint64(lin % bx) },
				ptx.SRegTidY:    func(lin int) uint64 { return uint64(lin / bx % by) },
				ptx.SRegTidZ:    func(lin int) uint64 { return uint64(lin / (bx * by)) },
				ptx.SRegLaneID:  func(lin int) uint64 { return uint64(lin % WarpSize) },
				ptx.SRegWarpID:  func(int) uint64 { return uint64(id) },
				ptx.SRegNtidX:   func(int) uint64 { return uint64(bx) },
				ptx.SRegNtidY:   func(int) uint64 { return uint64(by) },
				ptx.SRegNtidZ:   func(int) uint64 { return uint64(max(block.Z, 1)) },
				ptx.SRegCtaidX:  func(int) uint64 { return 7 % 3 },
				ptx.SRegCtaidY:  func(int) uint64 { return 7 / 3 % 2 },
				ptx.SRegCtaidZ:  func(int) uint64 { return 7 / 6 },
				ptx.SRegNctaidX: func(int) uint64 { return 3 },
				ptx.SRegNctaidY: func(int) uint64 { return 2 },
				ptx.SRegNctaidZ: func(int) uint64 { return 2 },
				ptx.SRegClock:   func(int) uint64 { return 99 },
			}
			for s, f := range want {
				var got row
				sregRow(c, w, s, &got)
				for l := range got {
					if got[l] != f(id*WarpSize+l) {
						t.Fatalf("block %+v warp %d %v lane %d: got %d, want %d", block, id, s, l, got[l], f(id*WarpSize+l))
					}
				}
			}
		}
	}
}
