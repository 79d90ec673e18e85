package ptx

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Parse parses one PTX translation unit. Each embedded PTX file of a
// library must be parsed with its own Parse call (paper §III-A fix 2).
func Parse(src string) (*Module, error) {
	toks, err := lexPTX(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, names: make(map[string]string), mod: &Module{
		Kernels:     make(map[string]*Kernel),
		AddressSize: 64,
	}}
	if err := p.parseModule(); err != nil {
		return nil, err
	}
	for _, name := range p.mod.KernelOrder {
		k := p.mod.Kernels[name]
		if err := resolveBranches(k); err != nil {
			return nil, err
		}
		if err := AnalyzeReconvergence(k); err != nil {
			return nil, fmt.Errorf("ptx: kernel %s: %w", name, err)
		}
	}
	return p.mod, nil
}

type parser struct {
	toks  []token
	pos   int
	mod   *Module
	names map[string]string // a token text -> the module's own copy (name)

	// per-kernel state
	k         *Kernel
	regPrefix map[string]Type // "%f" -> F32 for ranged declarations
	regSlots  map[string]int  // "%f3" -> its slot

	// per-instruction scratch
	elems []Operand // the vector operands' elements (Operand.elem indexes it)
	raw   []byte    // the source text
}

// name returns a token's text as a string of the module's own: a parsed
// module keeps no substring of the source text, so the source is not
// kept alive with it. Equal names share one copy.
func (p *parser) name(s string) string {
	if n, ok := p.names[s]; ok {
		return n
	}
	n := strings.Clone(s)
	p.names[n] = n
	return n
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes and returns the current token. The trailing EOF token is
// sticky: consuming it does not advance, so truncated inputs surface as
// parse errors instead of out-of-range panics.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ptx: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("ptx: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) parseModule() error {
	for {
		t := p.cur()
		switch {
		case t.kind == tokEOF:
			return nil
		case t.kind == tokDirective:
			switch t.text {
			case ".version":
				p.next()
				p.mod.Version = p.name(p.next().text)
			case ".target":
				p.next()
				p.mod.Target = p.name(p.next().text)
				for p.cur().kind == tokPunct && p.cur().text == "," {
					p.next()
					p.next()
				}
			case ".address_size":
				p.next()
				n, _ := strconv.Atoi(p.next().text)
				p.mod.AddressSize = n
			case ".visible", ".extern", ".weak":
				p.next()
			case ".entry":
				if err := p.parseEntry(); err != nil {
					return err
				}
			case ".global", ".const":
				if err := p.parseModuleVar(); err != nil {
					return err
				}
			case ".tex":
				p.next()
				// .tex .u64 name;
				for p.cur().kind == tokDirective {
					p.next()
				}
				p.mod.Textures = append(p.mod.Textures, p.name(p.next().text))
				if err := p.expectPunct(";"); err != nil {
					return err
				}
			default:
				return p.errf("unsupported module directive %s", t.text)
			}
		default:
			return p.errf("unexpected token %q at module scope", t.text)
		}
	}
}

// parseModuleVar handles module-scope .global/.const declarations; only
// .texref declarations are semantically used (other globals are rejected,
// mirroring GPGPU-Sim's lack of brace-initializer support noted in §III-E).
func (p *parser) parseModuleVar() error {
	p.next() // .global / .const
	isTexref := false
	for p.cur().kind == tokDirective {
		d := p.next().text
		if d == ".texref" {
			isTexref = true
		}
	}
	name := p.name(p.next().text)
	if p.cur().kind == tokPunct && p.cur().text == "[" {
		return p.errf("module-scope array variables are not supported (pass tables via kernel parameters)")
	}
	if p.cur().kind == tokPunct && p.cur().text == "=" {
		return p.errf("module-scope initializers (curly-brace syntax) are not supported")
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if isTexref {
		p.mod.Textures = append(p.mod.Textures, name)
	}
	return nil
}

func (p *parser) parseEntry() error {
	p.next() // .entry
	name := p.name(p.next().text)
	k := &Kernel{
		Name:   name,
		Labels: make(map[string]int),
	}
	p.k = k
	p.regPrefix = make(map[string]Type)
	p.regSlots = make(map[string]int)

	if p.cur().kind == tokPunct && p.cur().text == "(" {
		p.next()
		off := 0
		for {
			if p.cur().kind == tokPunct && p.cur().text == ")" {
				p.next()
				break
			}
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.next()
				continue
			}
			if p.cur().text != ".param" {
				return p.errf("expected .param in parameter list, got %q", p.cur().text)
			}
			p.next()
			align := 0
			var pt Type
			for p.cur().kind == tokDirective {
				d := p.next().text
				switch d {
				case ".align":
					a, _ := strconv.Atoi(p.next().text)
					align = a
				case ".ptr":
					// .ptr .global .align N annotations: skip
				default:
					if t, ok := typeByName[strings.TrimPrefix(d, ".")]; ok {
						pt = t
					}
				}
			}
			pname := p.name(p.next().text)
			size := pt.Size()
			if p.cur().kind == tokPunct && p.cur().text == "[" {
				p.next()
				n, _ := strconv.Atoi(p.next().text)
				if err := p.expectPunct("]"); err != nil {
					return err
				}
				size = pt.Size() * n
			}
			al := pt.Size()
			if align > al {
				al = align
			}
			if al == 0 {
				al = 1
			}
			off = (off + al - 1) / al * al
			k.Params = append(k.Params, Param{Name: pname, Type: pt, Align: al, Size: size, Offset: off})
			off += size
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	if err := p.parseBody(); err != nil {
		return fmt.Errorf("kernel %s: %w", name, err)
	}
	// kept for the process: no slack behind the slices
	k.Instrs = slices.Clone(k.Instrs)
	k.regTypes = slices.Clone(k.regTypes)
	k.regNames = slices.Clone(k.regNames)
	if _, dup := p.mod.Kernels[name]; dup {
		return fmt.Errorf("ptx: duplicate kernel %s within one module", name)
	}
	p.mod.Kernels[name] = k
	p.mod.KernelOrder = append(p.mod.KernelOrder, name)
	p.k, p.regPrefix, p.regSlots = nil, nil, nil
	return nil
}

func (p *parser) parseBody() error {
	k := p.k
	for {
		t := p.cur()
		switch {
		case t.kind == tokEOF:
			return p.errf("unexpected EOF in kernel body")
		case t.kind == tokPunct && t.text == "}":
			p.next()
			return nil
		case t.kind == tokDirective:
			switch t.text {
			case ".reg":
				if err := p.parseRegDecl(); err != nil {
					return err
				}
			case ".shared", ".local":
				if err := p.parseMemDecl(t.text); err != nil {
					return err
				}
			case ".pragma", ".maxntid", ".reqntid", ".minnctapersm":
				for p.cur().kind != tokPunct || p.cur().text != ";" {
					if p.cur().kind == tokEOF {
						return p.errf("unexpected EOF in %s directive", t.text)
					}
					p.next()
				}
				p.next()
			default:
				return p.errf("unsupported body directive %s", t.text)
			}
		case t.kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == ":":
			k.Labels[p.name(t.text)] = len(k.Instrs)
			p.next()
			p.next()
		case t.kind == tokPunct && t.text == "@":
			fallthrough
		case t.kind == tokIdent:
			if err := p.parseInstr(); err != nil {
				return err
			}
		default:
			return p.errf("unexpected token %q in kernel body", t.text)
		}
	}
}

func (p *parser) parseRegDecl() error {
	p.next() // .reg
	tt := p.next()
	rt, ok := typeByName[strings.TrimPrefix(tt.text, ".")]
	if !ok {
		return p.errf("bad register type %s", tt.text)
	}
	for {
		name := p.next().text
		if p.cur().kind == tokPunct && p.cur().text == "<" {
			p.next()
			p.next() // the count: registers are slotted as they are used
			if err := p.expectPunct(">"); err != nil {
				return err
			}
			p.regPrefix[name] = rt
		} else {
			p.addReg(name, rt)
		}
		if p.cur().kind == tokPunct && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	return p.expectPunct(";")
}

func (p *parser) parseMemDecl(kind string) error {
	k := p.k
	p.next() // .shared / .local
	align := 4
	var et Type = B8
	for p.cur().kind == tokDirective {
		d := p.next().text
		if d == ".align" {
			align, _ = strconv.Atoi(p.next().text)
			if align <= 0 {
				return p.errf("bad %s alignment", kind)
			}
		} else if t, ok := typeByName[strings.TrimPrefix(d, ".")]; ok {
			et = t
		}
	}
	name := p.name(p.next().text)
	count := 1
	if p.cur().kind == tokPunct && p.cur().text == "[" {
		p.next()
		count, _ = strconv.Atoi(p.next().text)
		if err := p.expectPunct("]"); err != nil {
			return err
		}
	}
	size := et.Size() * count
	v := MemVar{Name: name, Align: align, Size: size}
	if kind == ".shared" {
		off := (k.SharedBytes + align - 1) / align * align
		v.Offset = off
		k.SharedBytes = off + size
		k.SharedVars = append(k.SharedVars, v)
	} else {
		off := (k.LocalBytes + align - 1) / align * align
		v.Offset = off
		k.LocalBytes = off + size
		k.LocalVars = append(k.LocalVars, v)
	}
	return p.expectPunct(";")
}

// addReg gives the register name of type t a slot, if it has none yet.
func (p *parser) addReg(name string, t Type) int32 {
	if s, ok := p.regSlots[name]; ok {
		return int32(s)
	}
	k := p.k
	s := k.NumSlots
	name = p.name(name)
	p.regSlots[name] = s
	k.regTypes = append(k.regTypes, t)
	k.regNames = append(k.regNames, name)
	k.NumSlots++
	return int32(s)
}

// regRef returns the slot of a register name, slotting a name of a ranged
// declaration (its longest prefix followed by digits) on first use.
func (p *parser) regRef(name string) (int32, error) {
	if s, ok := p.regSlots[name]; ok {
		return int32(s), nil
	}
	// longest prefix with all-digit suffix
	for l := len(name) - 1; l >= 2; l-- {
		pre := name[:l]
		if rt, ok := p.regPrefix[pre]; ok && allDigits(name[l:]) {
			return p.addReg(name, rt), nil
		}
	}
	return -1, fmt.Errorf("undeclared register %s", name)
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func (p *parser) parseInstr() error {
	k := p.k
	in := Instr{PredReg: -1, Vec: 1, Target: -1, RPC: -1}
	startTok := p.pos
	p.elems = p.elems[:0]

	if p.cur().kind == tokPunct && p.cur().text == "@" {
		p.next()
		if p.cur().kind == tokPunct && p.cur().text == "!" {
			p.next()
			in.PredNeg = true
		}
		slot, err := p.regRef(p.next().text)
		if err != nil {
			return p.errf("%v", err)
		}
		in.PredReg = slot
	}

	opTok := p.next()
	op, ok := opByName[opTok.text]
	if !ok {
		return p.errf("unknown opcode %q", opTok.text)
	}
	in.Op = op

	// modifier chain
	nTypes := 0
	for p.cur().kind == tokDirective {
		m := strings.TrimPrefix(p.next().text, ".")
		switch m {
		case "global":
			in.Space = SpaceGlobal
		case "shared":
			in.Space = SpaceShared
		case "local":
			in.Space = SpaceLocal
		case "param":
			in.Space = SpaceParam
		case "const":
			in.Space = SpaceConst
		case "gen":
			in.Space = SpaceGeneric
		case "to":
			in.To = true
		case "wide":
			in.Wide = true
		case "lo":
			in.Lo = true
		case "hi":
			in.Hi = true
		case "sync", "uni", "approx", "full", "rn", "nc", "cta", "gl", "relaxed", "acquire", "release":
			// hints, defaults and orderings the interpreter's results
			// already satisfy: accepted and ignored
		case "rz", "rm", "rp", "ftz", "sat":
			// directed rounding, flush-to-zero and saturation would each
			// change the result, and the interpreter implements none
			return p.errf("modifier .%s on %s is not supported", m, opTok.text)
		case "rni":
			in.Rnd = RndNearestInt
		case "rzi":
			in.Rnd = RndZeroInt
		case "rmi":
			in.Rnd = RndDownInt
		case "rpi":
			in.Rnd = RndUpInt
		case "v2":
			in.Vec = 2
		case "v4":
			in.Vec = 4
		case "1d":
			in.Geom = 1
		case "2d":
			in.Geom = 2
		default:
			if t, isType := typeByName[m]; isType {
				if nTypes == 0 {
					in.T = t
				} else {
					// cvt.rn.DST.SRC — the second type token is the source.
					in.T2 = t
				}
				nTypes++
				break
			}
			if in.Op == OpSetp || in.Op == OpSlct {
				if c, isCmp := cmpByName[m]; isCmp {
					in.Cmp = c
					break
				}
			}
			if in.Op == OpAtom {
				if a, isAtom := atomByName[m]; isAtom {
					in.Atom = a
					break
				}
			}
			return p.errf("unknown modifier .%s on %s", m, opTok.text)
		}
	}
	// cvt has dst type first, src type second: T=dst, T2=src (as parsed).
	// tex.2d.v4.f32.s32: T=f32 element type, T2=s32 coordinate type.

	// operands
	if err := p.parseOperands(&in); err != nil {
		return err
	}

	b := p.raw[:0]
	for i := startTok; i < p.pos; i++ {
		if i > startTok {
			prev := p.toks[i-1]
			cur := p.toks[i]
			if !(cur.kind == tokPunct && (cur.text == ";" || cur.text == "," || cur.text == "]" || cur.text == ">")) &&
				!(prev.kind == tokPunct && (prev.text == "[" || prev.text == "@" || prev.text == "!" || prev.text == "{" || prev.text == "<")) &&
				!(cur.kind == tokDirective) &&
				!(cur.kind == tokPunct && cur.text == "}") {
				b = append(b, ' ')
			}
		}
		b = append(b, p.toks[i].text...)
	}
	in.Raw, p.raw = string(b), b

	k.Instrs = append(k.Instrs, in)
	return nil
}

func (p *parser) parseOperands(in *Instr) error {
	// no-operand forms
	if p.cur().kind == tokPunct && p.cur().text == ";" {
		p.next()
		return nil
	}
	var dst, src []Operand
	switch in.Op {
	case OpBra:
		in.Label = p.name(p.next().text)
		return p.expectPunct(";")
	case OpBar:
		o, err := p.parseOperand()
		if err != nil {
			return err
		}
		src = append(src, o)
		if p.cur().kind == tokPunct && p.cur().text == "," {
			p.next()
			o2, err := p.parseOperand()
			if err != nil {
				return err
			}
			src = append(src, o2)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	case OpTex:
		d, err := p.parseOperand()
		if err != nil {
			return err
		}
		dst = append(dst, d)
		if err := p.expectPunct(","); err != nil {
			return err
		}
		if err := p.expectPunct("["); err != nil {
			return err
		}
		src = append(src, Operand{Kind: OperandSym, Sym: p.name(p.next().text)})
		if err := p.expectPunct(","); err != nil {
			return err
		}
		c, err := p.parseOperand()
		if err != nil {
			return err
		}
		src = append(src, c)
		if err := p.expectPunct("]"); err != nil {
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	default:
		var ops []Operand
		for {
			o, err := p.parseOperand()
			if err != nil {
				return err
			}
			ops = append(ops, o)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		if in.Op == OpSt {
			// st [addr], src — first operand is the address (no register dst)
			src = ops
		} else {
			dst, src = ops[:1], ops[1:]
		}
	}
	if len(dst)+len(src)+len(p.elems) > maxOperands {
		return p.errf("more than %d operands", maxOperands)
	}
	in.ops = p.elems // the vectors' elements, which SetOperands copies
	in.SetOperands(dst, src)
	return nil
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return parseImm(t.text)
	case t.kind == tokPunct && t.text == "[":
		p.next()
		var o Operand
		o.Kind = OperandMem
		o.Base = -1
		bt := p.next()
		if strings.HasPrefix(bt.text, "%") {
			slot, err := p.regRef(bt.text)
			if err != nil {
				return o, p.errf("%v", err)
			}
			o.Base = slot
		} else {
			o.Sym = p.name(bt.text)
		}
		if p.cur().kind == tokPunct && p.cur().text == "+" {
			p.next()
			nt := p.next()
			v, err := strconv.ParseInt(nt.text, 0, 64)
			if err != nil {
				return o, p.errf("bad address offset %q", nt.text)
			}
			o.Offset = v
		}
		if err := p.expectPunct("]"); err != nil {
			return o, err
		}
		return o, nil
	case t.kind == tokPunct && t.text == "{":
		p.next()
		var elems []Operand
		for {
			e, err := p.parseOperand()
			if err != nil {
				return Operand{}, err
			}
			elems = append(elems, e)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct("}"); err != nil {
			return Operand{}, err
		}
		if len(p.elems)+len(elems) > maxOperands {
			return Operand{}, p.errf("more than %d operands", maxOperands)
		}
		// a nested vector's elements are already in p.elems
		o := Operand{Kind: OperandVec, elem: uint8(len(p.elems)), nelem: uint8(len(elems))}
		p.elems = append(p.elems, elems...)
		return o, nil
	case t.kind == tokIdent && strings.HasPrefix(t.text, "%"):
		p.next()
		if sr, ok := sregByName[t.text]; ok {
			return Operand{Kind: OperandSReg, SReg: sr}, nil
		}
		slot, err := p.regRef(t.text)
		if err != nil {
			return Operand{}, p.errf("%v", err)
		}
		return Operand{Kind: OperandReg, Reg: slot}, nil
	case t.kind == tokIdent:
		p.next()
		return Operand{Kind: OperandSym, Sym: p.name(t.text)}, nil
	case t.kind == tokPunct && t.text == "!":
		// !%p in selp-like contexts is not supported; guard only.
		return Operand{}, p.errf("unexpected '!' in operand position")
	}
	return Operand{}, p.errf("unexpected operand token %q", t.text)
}

// parseImm decodes a PTX immediate literal into raw bits.
func parseImm(s string) (Operand, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if len(s) > 2 && s[0] == '0' && (s[1] == 'f' || s[1] == 'F') {
		v, err := strconv.ParseUint(s[2:], 16, 32)
		if err != nil {
			return Operand{}, fmt.Errorf("bad f32 literal %q", s)
		}
		f := float64(math.Float32frombits(uint32(v)))
		if neg {
			f = -f
		}
		// Float immediates are canonically stored as f64 bits; the executor
		// narrows them per the instruction type.
		return Operand{Kind: OperandImm, Imm: math.Float64bits(f), FloatImm: true}, nil
	}
	if len(s) > 2 && s[0] == '0' && (s[1] == 'd' || s[1] == 'D') {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad f64 literal %q", s)
		}
		if neg {
			v ^= 0x8000000000000000
		}
		return Operand{Kind: OperandImm, Imm: v, FloatImm: true}, nil
	}
	s = strings.TrimSuffix(s, "U")
	if strings.Contains(s, ".") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad float literal %q", s)
		}
		if neg {
			f = -f
		}
		// Decimal float immediates are stored as f64 bits; the executor
		// converts per the instruction type.
		return Operand{Kind: OperandImm, Imm: math.Float64bits(f), FloatImm: true}, nil
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return Operand{}, fmt.Errorf("bad integer literal %q", s)
	}
	if neg {
		v = uint64(-int64(v))
	}
	return Operand{Kind: OperandImm, Imm: v}, nil
}

func resolveBranches(k *Kernel) error {
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op != OpBra {
			continue
		}
		pc, ok := k.Labels[in.Label]
		if !ok {
			return fmt.Errorf("ptx: kernel %s: undefined label %q", k.Name, in.Label)
		}
		in.Target = int32(pc)
	}
	return nil
}
