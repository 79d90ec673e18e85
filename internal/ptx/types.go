// Package ptx implements a parser, in-memory representation and
// control-flow analysis for the subset of NVIDIA's PTX virtual ISA that is
// used by the cuDNN-style kernels in this repository. An instruction has
// one text form, its source text (`Instr.Raw`); nothing rebuilds text
// from the parsed fields.
//
// The subset covers everything the paper's workloads exercise: parameter,
// global, shared, local, constant and generic memory spaces; vectorised
// loads/stores (float2/float4); predication; the SIMT-relevant control flow
// (bra/bar.sync/ret/exit); integer and floating-point arithmetic including
// the instructions the paper debugged (rem, bfe, brev); conversions
// including FP16; textures; and atomics.
package ptx

import "fmt"

// Type is a PTX operand type specifier (the ".s32" in "add.s32").
type Type uint8

// PTX scalar types.
const (
	TypeNone Type = iota
	U8
	S8
	U16
	S16
	U32
	S32
	U64
	S64
	F16
	F32
	F64
	B8
	B16
	B32
	B64
	Pred
)

var typeNames = map[Type]string{
	U8: "u8", S8: "s8", U16: "u16", S16: "s16",
	U32: "u32", S32: "s32", U64: "u64", S64: "s64",
	F16: "f16", F32: "f32", F64: "f64",
	B8: "b8", B16: "b16", B32: "b32", B64: "b64",
	Pred: "pred",
}

var typeByName = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, n := range typeNames {
		m[n] = t
	}
	return m
}()

func (t Type) String() string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return "none"
}

// Size returns the storage size of the type in bytes.
func (t Type) Size() int {
	switch t {
	case U8, S8, B8:
		return 1
	case U16, S16, B16, F16:
		return 2
	case U32, S32, B32, F32, Pred:
		return 4
	case U64, S64, B64, F64:
		return 8
	}
	return 0
}

// Signed reports whether the type is a signed integer type.
func (t Type) Signed() bool {
	switch t {
	case S8, S16, S32, S64:
		return true
	}
	return false
}

// Float reports whether the type is a floating-point type.
func (t Type) Float() bool {
	switch t {
	case F16, F32, F64:
		return true
	}
	return false
}

// Integer reports whether the type is an integer (or untyped-bits) type.
func (t Type) Integer() bool { return t != TypeNone && t != Pred && !t.Float() }

// Space is a PTX state space.
type Space uint8

// PTX state spaces.
const (
	SpaceNone Space = iota
	SpaceGeneric
	SpaceGlobal
	SpaceShared
	SpaceLocal
	SpaceParam
	SpaceConst
	SpaceReg
	SpaceTex
)

var spaceNames = map[Space]string{
	SpaceGeneric: "gen", SpaceGlobal: "global", SpaceShared: "shared",
	SpaceLocal: "local", SpaceParam: "param", SpaceConst: "const",
	SpaceReg: "reg", SpaceTex: "tex",
}

func (s Space) String() string {
	if n, ok := spaceNames[s]; ok {
		return n
	}
	return "none"
}

// Op is a PTX opcode.
type Op uint8

// Supported opcodes.
const (
	OpInvalid Op = iota
	OpLd
	OpSt
	OpMov
	OpCvt
	OpCvta
	OpAdd
	OpSub
	OpMul
	OpMad
	OpFma
	OpDiv
	OpRem
	OpAbs
	OpNeg
	OpMin
	OpMax
	OpSqrt
	OpRsqrt
	OpRcp
	OpLg2
	OpEx2
	OpSin
	OpCos
	OpSetp
	OpSelp
	OpSlct
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr
	OpBrev
	OpBfe
	OpBfi
	OpPopc
	OpClz
	OpBra
	OpBar
	OpRet
	OpExit
	OpAtom
	OpTex
	OpMembar
	opMax
)

var opNames = map[Op]string{
	OpLd: "ld", OpSt: "st", OpMov: "mov", OpCvt: "cvt", OpCvta: "cvta",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMad: "mad", OpFma: "fma",
	OpDiv: "div", OpRem: "rem", OpAbs: "abs", OpNeg: "neg", OpMin: "min",
	OpMax: "max", OpSqrt: "sqrt", OpRsqrt: "rsqrt", OpRcp: "rcp",
	OpLg2: "lg2", OpEx2: "ex2", OpSin: "sin", OpCos: "cos",
	OpSetp: "setp", OpSelp: "selp", OpSlct: "slct",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpBrev: "brev", OpBfe: "bfe", OpBfi: "bfi",
	OpPopc: "popc", OpClz: "clz",
	OpBra: "bra", OpBar: "bar", OpRet: "ret", OpExit: "exit",
	OpAtom: "atom", OpTex: "tex", OpMembar: "membar",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for o, n := range opNames {
		m[n] = o
	}
	return m
}()

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpLimit and TypeLimit bound the Op and Type enumerations from above, for
// dense tables indexed by them (the interpreter's coverage counters).
const (
	OpLimit   = int(opMax)
	TypeLimit = int(Pred) + 1
)

// CmpOp is a comparison operator used by setp and slct.
type CmpOp uint8

// Comparison operators.
const (
	CmpNone CmpOp = iota
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpLo // unsigned lt
	CmpLs // unsigned le
	CmpHi // unsigned gt
	CmpHs // unsigned ge
	CmpEqu
	CmpNeu
	CmpLtu
	CmpLeu
	CmpGtu
	CmpGeu
	CmpNum
	CmpNan
)

var cmpNames = map[CmpOp]string{
	CmpEq: "eq", CmpNe: "ne", CmpLt: "lt", CmpLe: "le", CmpGt: "gt",
	CmpGe: "ge", CmpLo: "lo", CmpLs: "ls", CmpHi: "hi", CmpHs: "hs",
	CmpEqu: "equ", CmpNeu: "neu", CmpLtu: "ltu", CmpLeu: "leu",
	CmpGtu: "gtu", CmpGeu: "geu", CmpNum: "num", CmpNan: "nan",
}

var cmpByName = func() map[string]CmpOp {
	m := make(map[string]CmpOp, len(cmpNames))
	for c, n := range cmpNames {
		m[n] = c
	}
	return m
}()

func (c CmpOp) String() string {
	if n, ok := cmpNames[c]; ok {
		return n
	}
	return "none"
}

// AtomOp is the operation performed by an atom instruction.
type AtomOp uint8

// Atomic operations.
const (
	AtomNone AtomOp = iota
	AtomAdd
	AtomMin
	AtomMax
	AtomExch
	AtomCas
	AtomAnd
	AtomOr
	AtomXor
)

var atomNames = map[AtomOp]string{
	AtomAdd: "add", AtomMin: "min", AtomMax: "max", AtomExch: "exch",
	AtomCas: "cas", AtomAnd: "and", AtomOr: "or", AtomXor: "xor",
}

var atomByName = func() map[string]AtomOp {
	m := make(map[string]AtomOp, len(atomNames))
	for a, n := range atomNames {
		m[n] = a
	}
	return m
}()

func (a AtomOp) String() string {
	if n, ok := atomNames[a]; ok {
		return n
	}
	return "none"
}

// SReg identifies a PTX special register.
type SReg uint8

// Special registers.
const (
	SRegNone SReg = iota
	SRegTidX
	SRegTidY
	SRegTidZ
	SRegNtidX
	SRegNtidY
	SRegNtidZ
	SRegCtaidX
	SRegCtaidY
	SRegCtaidZ
	SRegNctaidX
	SRegNctaidY
	SRegNctaidZ
	SRegLaneID
	SRegWarpID
	SRegClock
)

var sregNames = map[SReg]string{
	SRegTidX: "%tid.x", SRegTidY: "%tid.y", SRegTidZ: "%tid.z",
	SRegNtidX: "%ntid.x", SRegNtidY: "%ntid.y", SRegNtidZ: "%ntid.z",
	SRegCtaidX: "%ctaid.x", SRegCtaidY: "%ctaid.y", SRegCtaidZ: "%ctaid.z",
	SRegNctaidX: "%nctaid.x", SRegNctaidY: "%nctaid.y", SRegNctaidZ: "%nctaid.z",
	SRegLaneID: "%laneid", SRegWarpID: "%warpid", SRegClock: "%clock",
}

var sregByName = func() map[string]SReg {
	m := make(map[string]SReg, len(sregNames))
	for s, n := range sregNames {
		m[n] = s
	}
	return m
}()

func (s SReg) String() string {
	if n, ok := sregNames[s]; ok {
		return n
	}
	return "%sreg?"
}
