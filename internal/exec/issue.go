package exec

import "repro/internal/ptx"

// LatencyClass names the functional unit whose latency a non-memory
// instruction pays; the pipeline model maps it to cycles.
type LatencyClass uint8

const (
	LatALU LatencyClass = iota
	LatSFU
	LatIntDiv
)

// IssueInfo is what a pipeline model needs to know about one instruction
// before it executes: which register rows a scoreboard must see readable,
// which it marks busy, and how the instruction is classed. One per PC,
// built when the kernel is lowered (Grid.IssueTable); a scoreboard holds
// Grid.RegRows entries per warp.
type IssueInfo struct {
	Src []int32 // rows read: guard predicate, sources, address bases, vector elements
	Dst []int32 // rows written: destinations and destination vector elements
	Lat LatencyClass
	// Atomic marks atom.*: a read-modify-write other cores may race with.
	Atomic bool
	// SFU marks the transcendental-unit operations a power model counts
	// as SFU work. div/rem pay LatSFU or LatIntDiv but count as ALU work.
	SFU bool
}

// IssueTable returns the kernel's per-PC issue information. It is shared
// and read-only.
func (g *Grid) IssueTable() []IssueInfo { return g.prog.issue }

// issueTable walks every instruction's ptx operand lists once. It is the
// single definition of which slots an instruction reads and writes for
// scoreboard purposes and for register allocation, which then renames the
// table's slots to rows (regAlloc.rename). It deliberately works from
// ptx.Instr rather than the decoded handler operands: the scoreboard
// waits on every source operand as written — including trailing ones an
// opcode's handler ignores — and the modelled cycle counts depend on
// that. Slots outside the kernel's register file are left out; such an
// instruction raises its decode error when it executes.
func issueTable(k *ptx.Kernel) []IssueInfo {
	tbl := make([]IssueInfo, len(k.Instrs))
	var slots []int32 // one backing array for every Src and Dst
	add := func(slot int) {
		if slot >= 0 && slot < k.NumSlots {
			slots = append(slots, int32(slot))
		}
	}
	regs := func(ops []ptx.Operand, bases bool) {
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
				for j := range o.Elems {
					if o.Elems[j].Kind == ptx.OperandReg {
						add(o.Elems[j].Reg)
					}
				}
			}
		}
	}
	type span struct{ src, dst, end int }
	spans := make([]span, len(k.Instrs))
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		sp := span{src: len(slots)}
		add(in.PredReg)
		regs(in.Src, true)
		sp.dst = len(slots)
		regs(in.Dst, false)
		sp.end = len(slots)
		spans[pc] = sp

		e := &tbl[pc]
		e.Atomic = in.Op == ptx.OpAtom
		switch in.Op {
		case ptx.OpSqrt, ptx.OpRsqrt, ptx.OpRcp, ptx.OpLg2, ptx.OpEx2, ptx.OpSin, ptx.OpCos:
			e.Lat, e.SFU = LatSFU, true
		case ptx.OpDiv, ptx.OpRem:
			e.Lat = LatIntDiv
			if in.T.Float() {
				e.Lat = LatSFU
			}
		}
	}
	// slice only once slots has stopped growing
	for pc, sp := range spans {
		tbl[pc].Src = slots[sp.src:sp.dst:sp.dst]
		tbl[pc].Dst = slots[sp.dst:sp.end:sp.end]
	}
	return tbl
}
