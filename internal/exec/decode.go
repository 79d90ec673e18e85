package exec

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/device"
	"repro/internal/ptx"
)

// A kernel is lowered once per BugSet into a program: one instr record
// per ptx.Instr, holding everything the per-lane loops would otherwise
// re-derive on every execution — which handler runs it, the register rows
// it touches, immediates already in the operand type's bits (as constant
// rows), symbols resolved to parameter offsets or window addresses, the
// element size and vector width of a memory access, a branch's target and
// reconvergence PC — in 64 bytes. The scoreboard's rows for every PC sit
// beside the records in one array (IssueTable). Cold data is found by PC:
// the ptx.Instr (the generic ALU path, atomics, textures, coverage and
// error text) on the kernel, and a deferred decode error in the program's
// errs. Register slots are allocated onto rows first (regalloc.go). A
// ptx.Kernel is immutable after ptx.Parse (the debug instrumentation
// re-parses), so the program is kept on the kernel (ptx.Kernel.Derive),
// shared by every Machine with that BugSet, and never goes stale.
//
// Decoding never fails: an instruction the interpreter cannot execute
// (unknown symbol, wrong operand count or kind, mismatched vector width)
// becomes a herr entry carrying the error, raised if and when the
// instruction executes with an active lane — exactly when the
// lane-at-a-time interpreter used to notice.

// row is the register file slice of one row: 32 lanes of raw bits.
type row = [WarpSize]uint64

// smallRows hold the constants 0 to 32 — absent sources read 0, and
// steps, strides, shifts and element sizes are the immediates kernels
// name most — once for every program: the library's 55 kernels name 311
// constant rows of 52 values, 185 of them small.
var smallRows = func() (t [33]row) {
	for v := range t {
		for l := range t[v] {
			t[v][l] = uint64(v)
		}
	}
	return t
}()

// handler selects the warp-wide routine that executes an instruction.
type handler uint8

const (
	herr handler = iota // deferred decode error
	hbra
	hret
	hbar
	hmembar
	hld
	hst
	hatom
	htex
	// Everything below writes one register row from up to four source
	// rows. hgeneric calls the scalar evalALU per lane; the rest are
	// hand-specialised loops (alu_warp.go) pinned to evalALU bit for bit
	// by TestSpecialisedMatchesScalar. A shape earns a loop by reaching
	// about 1% of the warp instructions of a benchmark workload (the
	// histogram is in README.md, "Functional interpreter"); everything
	// else is generic.
	hgeneric
	hmov
	hadd32u
	hadd64
	hmul32u
	hmulwideu
	hmad32s
	hand
	hshl32u
	hshr32u
	haddf32
	hsubf32
	hmulf32
	hdivf32
	hfmaf32
	hsetpu32
	hselp
	hcvtf32u32
	numHandlers
)

// A source is coded in an int32: a register row offset (row*WarpSize)
// when it is not negative, else the program's constant row ^code (an
// immediate or a resolved symbol address, broadcast to all lanes at
// decode time; ^0 is the zero row, which absent sources read), or a special
// register materialised once per warp instruction (sregCode).
const sregBase = math.MinInt32

// sregCode codes special register s as a source.
func sregCode(s ptx.SReg) int32 { return sregBase + int32(s) }

// sregOf returns the special register a source code names, if it names
// one.
func sregOf(code int32) (ptx.SReg, bool) {
	if code < sregBase+256 {
		return ptx.SReg(code - sregBase), true
	}
	return 0, false
}

// flags are an instr's small properties.
type flags uint8

const (
	fPredNeg flags = 1 << iota // the guard predicate is negated
	fSRegs                     // some source is a special register
	fSext                      // loaded elements sign-extend to 64 bits
	fLat0                      // fLat: the LatencyClass, for pipeline models (classOf)
	fLat1
	fAtomic // an atom.*, for pipeline models
	fSFU    // SFU work, for pipeline models

	fLat      = fLat0 | fLat1
	fLatShift = 3
)

// instr is one lowered instruction.
type instr struct {
	h     handler
	cmp   ptx.CmpOp // hsetpu32: the comparison, lo/ls/hi/hs already mapped to lt/le/gt/ge
	flags flags

	// Memory operand of ld/st/atom.
	space ptx.Space // static space; param when the base symbol is a kernel parameter
	esize uint8     // bytes per element
	vec   uint8     // elements per lane

	ndst uint8
	pred int32 // guard predicate row offset, -1 when unguarded
	base int32 // address register row offset, -1 for a constant address

	// hbra: the branch target and its reconvergence PC.
	target, rpc int32

	dst [4]int32 // destination row offsets: one, or the elements of a vector load / texture fetch
	src [4]int32 // source codes: ALU sources; store, atomic and texture-coordinate values; ^0 when absent
	off uint64   // added to the base register; the whole address when base < 0
}

// program is a kernel lowered under one BugSet, which picks handlers.
type program struct {
	code     []instr
	consts   []*row        // the constant rows sources name, the zero row first
	errs     map[int]error // herr entries' errors, by PC
	issue    IssueTable    // for pipeline models (issue.go)
	regAlloc               // register slot -> row (regalloc.go)
}

// program returns k lowered under m's BugSet, lowering it on first use.
func (m *Machine) program(k *ptx.Kernel) *program {
	return k.Derive(m.progKey, func() any { return decode(k, m.bugs) }).(*program)
}

// decoder carries the state of one decode pass.
type decoder struct {
	bugs   BugSet
	k      *ptx.Kernel
	p      *program
	consts map[uint64]int32 // immediates broadcast to rows, shared by the kernel's instructions: their codes
}

func decode(k *ptx.Kernel, bugs BugSet) *program {
	issue := issueTable(k)
	p := &program{code: make([]instr, len(k.Instrs)), issue: issue, regAlloc: allocRegs(k, issue), consts: []*row{&smallRows[0]}}
	p.rename(issue)
	p.issue.code = p.code
	dc := &decoder{bugs: bugs, k: k, p: p, consts: map[uint64]int32{0: ^0}}
	for i := range k.Instrs {
		d := &p.code[i]
		in := &k.Instrs[i]
		d.flags = classOf(in)
		if err := dc.instr(d, in); err != nil {
			d.h = herr
			if p.errs == nil {
				p.errs = make(map[int]error)
			}
			p.errs[i] = err
		}
	}
	p.consts = slices.Clone(p.consts) // kept with the program: no slack
	return p
}

// constant returns the code of the row holding v in every lane.
func (dc *decoder) constant(v uint64) int32 {
	c, ok := dc.consts[v]
	if !ok {
		var r *row
		if v < uint64(len(smallRows)) {
			r = &smallRows[v]
		} else {
			r = new(row)
			for l := range r {
				r[l] = v
			}
		}
		c = ^int32(len(dc.p.consts))
		dc.p.consts = append(dc.p.consts, r)
		dc.consts[v] = c
	}
	return c
}

func (dc *decoder) regRow(slot int32) (int32, error) {
	if slot < 0 || int(slot) >= dc.k.NumSlots {
		return 0, fmt.Errorf("register slot %d out of range (kernel has %d)", slot, dc.k.NumSlots)
	}
	return dc.p.row[slot] * WarpSize, nil
}

// symAddress resolves a bare symbol operand (shared/local variable name)
// to its windowed generic address.
func (dc *decoder) symAddress(sym string) (uint64, error) {
	for _, v := range dc.k.SharedVars {
		if v.Name == sym {
			return device.SharedWindowBase + uint64(v.Offset), nil
		}
	}
	for _, v := range dc.k.LocalVars {
		if v.Name == sym {
			return device.LocalWindowBase + uint64(v.Offset), nil
		}
	}
	return 0, fmt.Errorf("exec: unknown symbol %q in kernel %s", sym, dc.k.Name)
}

// source lowers one scalar source operand read as type t.
func (dc *decoder) source(d *instr, o *ptx.Operand, t ptx.Type) (int32, error) {
	switch o.Kind {
	case ptx.OperandReg:
		return dc.regRow(o.Reg)
	case ptx.OperandSReg:
		d.flags |= fSRegs
		return sregCode(o.SReg), nil
	case ptx.OperandImm:
		return dc.constant(immValue(o, t)), nil
	case ptx.OperandSym:
		a, err := dc.symAddress(o.Sym)
		return dc.constant(a), err
	}
	return 0, fmt.Errorf("exec: unsupported source operand kind %d", o.Kind)
}

// dest lowers a scalar register destination.
func (dc *decoder) dest(d *instr, o *ptx.Operand) error {
	if o.Kind != ptx.OperandReg {
		return fmt.Errorf("non-register destination")
	}
	r, err := dc.regRow(o.Reg)
	d.dst[0], d.ndst = r, 1
	return err
}

// vector checks that o, an operand of in, lists exactly n scalar elements
// when n > 1, or is a scalar itself when n == 1, and returns the elements.
func vector(in *ptx.Instr, o *ptx.Operand, n int) ([]ptx.Operand, error) {
	if n == 1 {
		if o.Kind == ptx.OperandVec {
			return nil, fmt.Errorf("vector operand on a scalar access")
		}
		return []ptx.Operand{*o}, nil
	}
	if o.Kind != ptx.OperandVec {
		return nil, fmt.Errorf(".v%d access needs a {…} vector operand", n)
	}
	if elems := in.Elems(o); len(elems) != n {
		return nil, fmt.Errorf("vector operand has %d elements, want %d", len(elems), n)
	}
	return in.Elems(o), nil
}

// address lowers the memory operand of ld/st/atom. A symbol base that
// names a kernel parameter addresses the parameter buffer whatever space
// the instruction states.
func (dc *decoder) address(d *instr, in *ptx.Instr, o *ptx.Operand, what string) error {
	if o.Kind != ptx.OperandMem {
		return fmt.Errorf("%s is not a memory operand", what)
	}
	d.space = in.Space
	d.esize = uint8(in.T.Size())
	d.vec = in.Vec
	if d.esize == 0 {
		return fmt.Errorf("memory access needs a sized type")
	}
	if in.Vec < 1 || int(in.Vec) > len(d.dst) {
		return fmt.Errorf("bad vector width %d", in.Vec)
	}
	if in.T.Signed() && d.esize < 8 {
		d.flags |= fSext
	}
	if o.Base >= 0 {
		r, err := dc.regRow(o.Base)
		d.base, d.off = r, uint64(o.Offset)
		return err
	}
	d.base = -1
	if p := dc.k.ParamByName(o.Sym); p != nil {
		d.space = ptx.SpaceParam
		d.off = uint64(int64(p.Offset) + o.Offset)
		return nil
	}
	a, err := dc.symAddress(o.Sym)
	d.off = uint64(int64(a) + o.Offset)
	return err
}

// aluSources is the number of sources each register-producing opcode
// reads; opcodes not listed have no ALU semantics.
var aluSources = [ptx.OpLimit]uint8{
	ptx.OpMov: 1, ptx.OpCvt: 1, ptx.OpCvta: 1, ptx.OpAbs: 1, ptx.OpNeg: 1, ptx.OpNot: 1,
	ptx.OpSqrt: 1, ptx.OpRsqrt: 1, ptx.OpRcp: 1, ptx.OpLg2: 1, ptx.OpEx2: 1, ptx.OpSin: 1, ptx.OpCos: 1,
	ptx.OpBrev: 1, ptx.OpPopc: 1, ptx.OpClz: 1,
	ptx.OpAdd: 2, ptx.OpSub: 2, ptx.OpMul: 2, ptx.OpDiv: 2, ptx.OpRem: 2, ptx.OpMin: 2, ptx.OpMax: 2,
	ptx.OpSetp: 2, ptx.OpAnd: 2, ptx.OpOr: 2, ptx.OpXor: 2, ptx.OpShl: 2, ptx.OpShr: 2,
	ptx.OpMad: 3, ptx.OpFma: 3, ptx.OpSelp: 3, ptx.OpSlct: 3, ptx.OpBfe: 3,
	ptx.OpBfi: 4,
}

// instr lowers one instruction into d; an error makes it a herr entry.
func (dc *decoder) instr(d *instr, in *ptx.Instr) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("exec: %q: %w", in.Raw, err)
		}
	}()
	d.pred = -1
	if in.PredNeg {
		d.flags |= fPredNeg
	}
	if in.PredReg >= 0 {
		if d.pred, err = dc.regRow(in.PredReg); err != nil {
			return err
		}
	}
	for i := range d.src {
		d.src[i] = ^0
	}

	switch in.Op {
	case ptx.OpBra:
		if in.Target < 0 || int(in.Target) > len(dc.k.Instrs) {
			return fmt.Errorf("unresolved branch target %q", in.Label)
		}
		d.h, d.target, d.rpc = hbra, in.Target, in.RPC
	case ptx.OpRet, ptx.OpExit:
		d.h = hret
	case ptx.OpBar:
		d.h = hbar
	case ptx.OpMembar:
		d.h = hmembar
	case ptx.OpLd:
		d.h = hld
		return dc.load(d, in)
	case ptx.OpSt:
		d.h = hst
		return dc.store(d, in)
	case ptx.OpAtom:
		d.h = hatom
		return dc.atom(d, in)
	case ptx.OpTex:
		d.h = htex
		return dc.tex(d, in)
	default:
		return dc.alu(d, in)
	}
	return nil
}

func (dc *decoder) load(d *instr, in *ptx.Instr) error {
	dst, src := in.Dst(), in.Src()
	if len(dst) < 1 || len(src) < 1 {
		return fmt.Errorf("ld takes a destination and an address, got %d operands", len(dst)+len(src))
	}
	if err := dc.address(d, in, &src[0], "load source"); err != nil {
		return err
	}
	elems, err := vector(in, &dst[0], int(in.Vec))
	if err != nil {
		return err
	}
	for e := range elems {
		if elems[e].Kind != ptx.OperandReg {
			return fmt.Errorf("non-register destination")
		}
		if d.dst[e], err = dc.regRow(elems[e].Reg); err != nil {
			return err
		}
	}
	d.ndst = uint8(len(elems))
	return nil
}

func (dc *decoder) store(d *instr, in *ptx.Instr) error {
	src := in.Src()
	if len(src) < 2 {
		return fmt.Errorf("st takes an address and a value, got %d operands", len(src))
	}
	if err := dc.address(d, in, &src[0], "store target"); err != nil {
		return err
	}
	elems, err := vector(in, &src[1], int(in.Vec))
	if err != nil {
		return err
	}
	for e := range elems {
		if d.src[e], err = dc.source(d, &elems[e], in.T); err != nil {
			return err
		}
	}
	return nil
}

func (dc *decoder) atom(d *instr, in *ptx.Instr) error {
	dst, src := in.Dst(), in.Src()
	want := 2
	switch in.Atom {
	case ptx.AtomAdd, ptx.AtomMin, ptx.AtomMax, ptx.AtomExch, ptx.AtomAnd, ptx.AtomOr, ptx.AtomXor:
	case ptx.AtomCas:
		want = 3
	default:
		return fmt.Errorf("unsupported atomic op")
	}
	if len(src) < want {
		return fmt.Errorf("atom.%v takes an address and %d values, got %d operands", in.Atom, want-1, len(src))
	}
	if in.Vec != 1 {
		return fmt.Errorf("vector atomics are not supported")
	}
	if err := dc.address(d, in, &src[0], "atomic target"); err != nil {
		return err
	}
	for i := 1; i < want; i++ {
		var err error
		if d.src[i-1], err = dc.source(d, &src[i], in.T); err != nil {
			return err
		}
	}
	// the fetched value is dropped unless the first operand is a register
	if len(dst) > 0 && dst[0].Kind == ptx.OperandReg {
		return dc.dest(d, &dst[0])
	}
	return nil
}

func (dc *decoder) tex(d *instr, in *ptx.Instr) error {
	dst, src := in.Dst(), in.Src()
	if len(dst) < 1 || len(src) < 2 || src[0].Kind != ptx.OperandSym {
		return fmt.Errorf("tex takes a destination, a texture name and coordinates")
	}
	elems := dst[:1]
	if dst[0].Kind == ptx.OperandVec {
		elems = in.Elems(&dst[0])
		if len(elems) > 4 {
			elems = elems[:4]
		}
	}
	for e := range elems {
		if elems[e].Kind != ptx.OperandReg {
			return fmt.Errorf("non-register destination")
		}
		var err error
		if d.dst[e], err = dc.regRow(elems[e].Reg); err != nil {
			return err
		}
	}
	d.ndst = uint8(len(elems))
	// coordinates: x, then y for 2-D fetches that supply one
	coords := src[1:2]
	if src[1].Kind == ptx.OperandVec {
		coords = in.Elems(&src[1])
		if len(coords) == 0 {
			return fmt.Errorf("tex needs a coordinate")
		}
		if in.Geom != 2 || len(coords) == 1 {
			coords = coords[:1]
		} else {
			coords = coords[:2]
		}
	}
	for i := range coords {
		var err error
		if d.src[i], err = dc.source(d, &coords[i], ptx.S32); err != nil {
			return err
		}
	}
	return nil
}

// alu lowers a register-producing instruction and picks its handler.
func (dc *decoder) alu(d *instr, in *ptx.Instr) error {
	if int(in.Op) >= ptx.OpLimit || aluSources[in.Op] == 0 {
		return fmt.Errorf("opcode has no ALU semantics")
	}
	dst, src := in.Dst(), in.Src()
	if len(dst) == 0 {
		return fmt.Errorf("missing destination")
	}
	// mov of a vector (pack/unpack) is unsupported; scalar only.
	if err := dc.dest(d, &dst[0]); err != nil {
		return err
	}
	// Operands past the ones the opcode reads are ignored, up to the four
	// a source vector ever held.
	want := int(aluSources[in.Op])
	if len(src) < want || len(src) > len(d.src) {
		return fmt.Errorf("%v takes %d source operands, got %d", in.Op, want, len(src))
	}
	srcT := in.T
	if in.Op == ptx.OpCvt && in.T2 != ptx.TypeNone {
		srcT = in.T2
	}
	for i := range src[:want] {
		st := srcT
		if in.Op == ptx.OpSelp && i == 2 {
			st = ptx.Pred
		}
		if in.Op == ptx.OpSlct && i == 2 {
			st = in.T2
		}
		var err error
		if d.src[i], err = dc.source(d, &src[i], st); err != nil {
			return err
		}
	}
	d.h = dc.specialise(d, in)
	return nil
}

// specialise picks the hand-written loop for (op, type, modifiers), or
// hgeneric. An opcode BugSet.BreakOp names always runs generic, where
// evalALU perturbs its result.
func (dc *decoder) specialise(d *instr, in *ptx.Instr) handler {
	if dc.bugs.broken(in.Op) {
		return hgeneric
	}
	t := in.T
	f32 := t == ptx.F32
	u32 := t == ptx.U32 || t == ptx.B32 // results zero-extend
	lo := !in.Wide && !in.Hi
	switch in.Op {
	case ptx.OpMov, ptx.OpCvta:
		return hmov
	case ptx.OpAnd:
		return hand
	case ptx.OpSelp:
		return hselp
	case ptx.OpAdd:
		switch {
		case f32:
			return haddf32
		case u32:
			return hadd32u
		case t == ptx.U64 || t == ptx.S64 || t == ptx.B64:
			return hadd64
		}
	case ptx.OpSub:
		if f32 {
			return hsubf32
		}
	case ptx.OpMul:
		switch {
		case f32:
			return hmulf32
		case u32 && in.Wide:
			return hmulwideu
		case u32 && lo:
			return hmul32u
		}
	case ptx.OpMad:
		switch {
		case f32:
			return hfmaf32
		case t == ptx.S32 && lo:
			return hmad32s
		}
	case ptx.OpFma:
		if f32 {
			return hfmaf32
		}
	case ptx.OpDiv:
		if f32 {
			return hdivf32
		}
	case ptx.OpShl:
		if u32 {
			return hshl32u
		}
	case ptx.OpShr:
		if u32 {
			return hshr32u
		}
	case ptx.OpSetp:
		if !u32 {
			break
		}
		d.cmp = in.Cmp
		if c := unsignedCmp(in.Cmp); c != ptx.CmpNone {
			d.cmp = c
		}
		if _, ok := intCmp(d.cmp, uint64(0), 0); ok {
			return hsetpu32
		}
	case ptx.OpCvt:
		// integer source: cvtOp ignores the rounding modifier
		if f32 && in.T2 == ptx.U32 {
			return hcvtf32u32
		}
	}
	return hgeneric
}
