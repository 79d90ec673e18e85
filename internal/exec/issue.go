package exec

import (
	"slices"

	"repro/internal/ptx"
)

// LatencyClass names the functional unit whose latency a non-memory
// instruction pays; the pipeline model maps it to cycles.
type LatencyClass uint8

const (
	LatALU LatencyClass = iota
	LatSFU
	LatIntDiv
)

// classOf returns the flags that class in for a pipeline model: its
// LatencyClass (fLat) and the atomic and SFU marks.
func classOf(in *ptx.Instr) flags {
	var f flags
	if in.Op == ptx.OpAtom {
		f |= fAtomic
	}
	switch in.Op {
	case ptx.OpSqrt, ptx.OpRsqrt, ptx.OpRcp, ptx.OpLg2, ptx.OpEx2, ptx.OpSin, ptx.OpCos:
		f |= flags(LatSFU)<<fLatShift | fSFU
	case ptx.OpDiv, ptx.OpRem:
		if in.T.Float() {
			f |= flags(LatSFU) << fLatShift
		} else {
			f |= flags(LatIntDiv) << fLatShift
		}
	}
	return f
}

// IssueTable is what a pipeline model needs to know about each
// instruction of a kernel before it executes: which register rows a
// scoreboard must see readable, which it marks busy, and how the
// instruction is classed. It is built when the kernel is lowered
// (Grid.IssueTable) and holds every PC's rows in one array; a scoreboard
// holds Grid.RegRows entries per warp. It is shared and read-only.
type IssueTable struct {
	// rows holds, PC after PC, the rows read (guard predicate, sources,
	// address bases, vector elements) and then the rows written
	// (destinations and destination vector elements).
	rows []int32
	// at bounds them: PC pc reads rows[at[2pc]:at[2pc+1]] and writes
	// rows[at[2pc+1]:at[2pc+2]].
	at   []uint32
	code []instr // the lowered instructions, which carry the classes
}

// Src returns the rows the instruction at pc reads.
func (t *IssueTable) Src(pc int) []int32 { return t.rows[t.at[2*pc]:t.at[2*pc+1]] }

// Dst returns the rows the instruction at pc writes.
func (t *IssueTable) Dst(pc int) []int32 { return t.rows[t.at[2*pc+1]:t.at[2*pc+2]] }

// Lat returns the latency class of the instruction at pc.
func (t *IssueTable) Lat(pc int) LatencyClass {
	return LatencyClass(t.code[pc].flags & fLat >> fLatShift)
}

// Atomic reports whether the instruction at pc is an atom.*: a
// read-modify-write other cores may race with.
func (t *IssueTable) Atomic(pc int) bool { return t.code[pc].flags&fAtomic != 0 }

// SFU reports whether the instruction at pc is one of the
// transcendental-unit operations a power model counts as SFU work.
// div/rem pay LatSFU or LatIntDiv but count as ALU work.
func (t *IssueTable) SFU(pc int) bool { return t.code[pc].flags&fSFU != 0 }

// IssueTable returns the kernel's issue table. A copy shares its arrays
// with the program's.
func (g *Grid) IssueTable() IssueTable { return g.prog.issue }

// issueTable walks every instruction's ptx operand lists once. It is the
// single definition of which slots an instruction reads and writes for
// scoreboard purposes and for register allocation, which then renames the
// table's slots to rows (regAlloc.rename). It deliberately works from
// ptx.Instr rather than the decoded handler operands: the scoreboard
// waits on every source operand as written — including trailing ones an
// opcode's handler ignores — and the modelled cycle counts depend on
// that. Slots outside the kernel's register file are left out; such an
// instruction raises its decode error when it executes. The table has no
// classes until decode gives it the program's code.
func issueTable(k *ptx.Kernel) IssueTable {
	t := IssueTable{at: make([]uint32, 2*len(k.Instrs)+1)}
	add := func(slot int32) {
		if slot >= 0 && int(slot) < k.NumSlots {
			t.rows = append(t.rows, slot)
		}
	}
	regs := func(in *ptx.Instr, ops []ptx.Operand, bases bool) {
		for i := range ops {
			o := &ops[i]
			switch o.Kind {
			case ptx.OperandReg:
				add(o.Reg)
			case ptx.OperandMem:
				if bases {
					add(o.Base)
				}
			case ptx.OperandVec:
				for _, e := range in.Elems(o) {
					if e.Kind == ptx.OperandReg {
						add(e.Reg)
					}
				}
			}
		}
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		add(in.PredReg)
		regs(in, in.Src(), true)
		t.at[2*pc+1] = uint32(len(t.rows))
		regs(in, in.Dst(), false)
		t.at[2*pc+2] = uint32(len(t.rows))
	}
	t.rows = slices.Clone(t.rows) // kept with the program: no slack
	return t
}
