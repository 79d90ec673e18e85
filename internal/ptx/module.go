package ptx

import "fmt"

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

// Kernel is a parsed .entry function.
type Kernel struct {
	Name   string
	Params []Param

	// Register bookkeeping: every named register is assigned a dense slot
	// in the per-thread register file. regSlots maps "%f3" to its slot.
	regSlots    map[string]int
	regTypes    []Type // slot -> declared type
	regNames    []string
	NumSlots    int
	SharedVars  []MemVar
	LocalVars   []MemVar
	SharedBytes int
	LocalBytes  int

	Instrs []Instr
	Labels map[string]int
}

// Param describes one kernel parameter.
type Param struct {
	Name   string
	Type   Type
	Align  int
	Size   int // bytes; arrays possible but unused here
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

func (k *Kernel) addReg(name string, t Type) int {
	if s, ok := k.regSlots[name]; ok {
		return s
	}
	s := k.NumSlots
	k.regSlots[name] = s
	k.regTypes = append(k.regTypes, t)
	k.regNames = append(k.regNames, name)
	k.NumSlots++
	return s
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

func (r RndMode) String() string {
	switch r {
	case RndNearestInt:
		return "rni"
	case RndZeroInt:
		return "rzi"
	case RndDownInt:
		return "rmi"
	case RndUpInt:
		return "rpi"
	}
	return ""
}

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

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind

	// OperandReg
	Reg     int // register slot
	RegName string

	// OperandSReg
	SReg SReg

	// OperandImm: raw bits; FloatImm marks 0f/0d literals (already encoded).
	Imm      uint64
	FloatImm bool

	// OperandMem
	Base    int    // register slot of base, or -1 when symbol-based
	BaseSym string // param/shared/local symbol name when Base < 0
	Offset  int64

	// OperandVec
	Elems []Operand

	// OperandSym
	Sym string
}

// Instr is one decoded PTX instruction.
type Instr struct {
	PredReg int // register slot of guard predicate; -1 when unguarded
	PredNeg bool

	Op     Op
	T      Type // primary (destination) type
	T2     Type // source type for cvt / slct / setp second type / tex coord type
	Cmp    CmpOp
	Atom   AtomOp
	Space  Space
	Vec    int // 1, 2 or 4
	Wide   bool
	Hi     bool
	Lo     bool
	Uni    bool
	To     bool // cvta.to: generic -> space conversion
	Approx bool
	Rnd    RndMode // integer-rounding mode for cvt (.rni/.rzi/.rmi/.rpi)
	Geom   int     // tex geometry: 1 or 2 (dimensions)

	Dst []Operand
	Src []Operand

	Label  string // unresolved branch target label
	Target int    // resolved branch target PC
	RPC    int    // reconvergence PC for potentially divergent branches

	Raw string // source text, for diagnostics and instrumentation logs
}

// HasRegDst reports whether the instruction writes at least one general
// (non-predicate) register; used by the debug instrumentation pass.
func (in *Instr) HasRegDst(k *Kernel) bool {
	if len(in.Dst) == 0 {
		return false
	}
	switch in.Op {
	case OpSt, OpBra, OpBar, OpRet, OpExit, OpMembar:
		return false
	}
	d := in.Dst[0]
	switch d.Kind {
	case OperandReg:
		return k.RegType(d.Reg) != Pred
	case OperandVec:
		return true
	}
	return false
}

func (in *Instr) String() string {
	if in.Raw != "" {
		return in.Raw
	}
	return fmt.Sprintf("%s.%s", in.Op, in.T)
}

// KernelNames returns kernel names in declaration order.
func (m *Module) KernelNames() []string {
	out := make([]string, len(m.KernelOrder))
	copy(out, m.KernelOrder)
	return out
}
