package ptx

import (
	"fmt"
	"sync"
)

// Module is a parsed PTX translation unit. The paper's §III-A requires that
// each embedded PTX file of a precompiled library is parsed as a separate
// module so that duplicate symbol names across files do not collide; the
// runtime therefore keeps a list of Modules rather than one merged program.
type Module struct {
	Version     string
	Target      string
	AddressSize int
	Kernels     map[string]*Kernel
	KernelOrder []string // declaration order, for deterministic iteration
	Textures    []string // module-level .texref declarations
}

// Kernel is a parsed .entry function. It is immutable after Parse, so
// anything computed from it alone is computed once and kept on it (Derive).
type Kernel struct {
	Name   string
	Params []Param

	// Register bookkeeping: every named register is assigned a dense slot
	// in the per-thread register file (the parser maps names to slots
	// while it runs).
	regTypes    []Type // slot -> declared type
	regNames    []string
	NumSlots    int
	SharedVars  []MemVar
	LocalVars   []MemVar
	SharedBytes int
	LocalBytes  int

	Instrs []Instr
	Labels map[string]int

	derived sync.Map // Derive's results, by key
}

// Derive returns build's result for key, calling build on the first call
// for that key; the result lives as long as k. Concurrent first calls may
// each run build, but all of them return the one result kept. The key
// names what build computes and every input it reads besides k, and is a
// comparable value of a type the deriving package owns, so packages never
// collide.
func (k *Kernel) Derive(key any, build func() any) any {
	if v, ok := k.derived.Load(key); ok {
		return v
	}
	v, _ := k.derived.LoadOrStore(key, build())
	return v
}

// Param describes one kernel parameter.
type Param struct {
	Name   string
	Type   Type
	Align  int
	Size   int // bytes: Type.Size() times the array length, if any
	Offset int // byte offset within the parameter buffer
}

// MemVar is a statically declared .shared or .local array.
type MemVar struct {
	Name   string
	Align  int
	Size   int
	Offset int // offset within the kernel's shared/local segment
}

// ParamBytes returns the total size of the kernel parameter buffer.
func (k *Kernel) ParamBytes() int {
	if len(k.Params) == 0 {
		return 0
	}
	last := k.Params[len(k.Params)-1]
	return last.Offset + last.Size
}

// RegType returns the declared type of a register slot.
func (k *Kernel) RegType(slot int) Type { return k.regTypes[slot] }

// RegName returns the textual name of a register slot.
func (k *Kernel) RegName(slot int) string { return k.regNames[slot] }

// ParamByName returns the named parameter, or nil.
func (k *Kernel) ParamByName(name string) *Param {
	for i := range k.Params {
		if k.Params[i].Name == name {
			return &k.Params[i]
		}
	}
	return nil
}

// RndMode is the integer-rounding modifier on cvt.
type RndMode uint8

// Rounding modes for float-to-integer-valued conversions.
const (
	RndNone       RndMode = iota
	RndNearestInt         // .rni
	RndZeroInt            // .rzi
	RndDownInt            // .rmi
	RndUpInt              // .rpi
)

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	OperandNone OperandKind = iota
	OperandReg
	OperandSReg
	OperandImm
	OperandMem // [base +/- offset]
	OperandVec // {%f1,%f2,...}
	OperandSym // bare symbol: label, param name, shared var, texref
)

// Operand is one instruction operand; Kind says which fields hold it. A
// vector operand's elements are operands of the instruction that holds
// it (Instr.Elems).
type Operand struct {
	// OperandImm: raw bits; FloatImm marks 0f/0d literals (already encoded).
	Imm uint64

	// OperandMem: the byte offset added to the base.
	Offset int64

	// OperandSym: the bare symbol. OperandMem: the parameter, shared or
	// local variable a symbol-based address names (Base < 0).
	Sym string

	// OperandReg: register slot.
	Reg int32

	// OperandMem: register slot of the base, or -1 when symbol-based.
	Base int32

	Kind     OperandKind
	SReg     SReg // OperandSReg
	FloatImm bool

	// OperandVec: its elements are the holding instruction's operands
	// elem up to elem+nelem (Instr.Elems).
	elem, nelem uint8
}

// maxOperands bounds the operands of one instruction, vector elements
// included, so an operand's place in its instruction fits a uint8.
const maxOperands = 255

// Instr is one decoded PTX instruction.
type Instr struct {
	// ops holds every operand in one array of exactly their number: the
	// destinations, the sources, then the elements of vector operands.
	ops        []Operand
	nDst, nSrc uint8

	PredReg int32 // register slot of guard predicate; -1 when unguarded
	PredNeg bool

	Op    Op
	T     Type // primary (destination) type
	T2    Type // source type for cvt / slct / setp second type / tex coord type
	Cmp   CmpOp
	Atom  AtomOp
	Space Space
	Vec   uint8 // 1, 2 or 4
	Wide  bool
	Hi    bool
	Lo    bool
	To    bool    // cvta.to: generic -> space conversion
	Rnd   RndMode // integer-rounding mode for cvt (.rni/.rzi/.rmi/.rpi)
	Geom  uint8   // tex geometry: 1 or 2 (dimensions)

	Label  string // unresolved branch target label
	Target int32  // resolved branch target PC
	RPC    int32  // reconvergence PC for potentially divergent branches

	// Raw is the instruction's source text, its tokens joined with
	// canonical spacing. It is the one text form of an instruction:
	// diagnostics print it, the debug tool's instrumentation re-emits it,
	// and it re-parses to the same instruction with the same Raw.
	Raw string
}

// Dst returns the destination operands. The slice is the instruction's
// own; do not modify it.
func (in *Instr) Dst() []Operand { return in.ops[:in.nDst:in.nDst] }

// Src returns the source operands (a store's address first). The slice
// is the instruction's own; do not modify it.
func (in *Instr) Src() []Operand {
	end := int(in.nDst) + int(in.nSrc)
	return in.ops[in.nDst:end:end]
}

// Elems returns the elements of o, a vector operand of in; it is empty
// for any other kind. The slice is the instruction's own; do not modify
// it.
func (in *Instr) Elems(o *Operand) []Operand {
	end := int(o.elem) + int(o.nelem)
	return in.ops[o.elem:end:end]
}

// SetOperands gives in the destinations dst and the sources src. A
// vector operand among them keeps its elements, which it names by their
// place in in's operands. The operands are copied into one array of
// exactly their number, so the slices passed in may alias in's own.
func (in *Instr) SetOperands(dst, src []Operand) {
	n := len(dst) + len(src)
	var count func(o *Operand)
	count = func(o *Operand) {
		for i := range in.Elems(o) {
			n++
			count(&in.ops[int(o.elem)+i])
		}
	}
	for _, l := range [2][]Operand{dst, src} {
		for i := range l {
			count(&l[i])
		}
	}
	if n > maxOperands {
		panic(fmt.Sprintf("ptx: %d operands, at most %d", n, maxOperands))
	}
	ops := make([]Operand, 0, n)
	ops = append(append(ops, dst...), src...)
	// move each vector's elements behind the operands placed so far
	for i := 0; i < len(ops); i++ {
		if o := &ops[i]; o.Kind == OperandVec {
			els := in.Elems(o)
			o.elem = uint8(len(ops))
			ops = append(ops, els...)
		}
	}
	in.ops, in.nDst, in.nSrc = ops, uint8(len(dst)), uint8(len(src))
}

// HasRegDst reports whether the instruction writes at least one general
// (non-predicate) register; used by the debug instrumentation pass.
func (in *Instr) HasRegDst(k *Kernel) bool {
	if in.nDst == 0 {
		return false
	}
	switch in.Op {
	case OpSt, OpBra, OpBar, OpRet, OpExit, OpMembar:
		return false
	}
	d := in.Dst()[0]
	switch d.Kind {
	case OperandReg:
		return k.RegType(int(d.Reg)) != Pred
	case OperandVec:
		return true
	}
	return false
}

func (in *Instr) String() string { return in.Raw }

// KernelNames returns kernel names in declaration order.
func (m *Module) KernelNames() []string {
	out := make([]string, len(m.KernelOrder))
	copy(out, m.KernelOrder)
	return out
}
