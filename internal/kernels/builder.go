// Package kernels contains the PTX kernel corpus of our cuDNN-analog
// library. Like the real cuDNN, the library ships kernels as PTX text that
// the simulator's loader parses and executes; unlike the real cuDNN we
// generate that PTX from small Go builders so every algorithm (GEMM,
// implicit GEMM, FFT with brev-based bit reversal, Winograd fused and
// non-fused, LRN via textures, pooling, softmax, SGD) stays reviewable.
//
// Kernel names intentionally match the hot kernels in the paper's Fig. 7:
// fft2d_r2c_32x32, fft2d_r2c_16x16, fft2d_c2r_32x32, CGEMM, GEMV2T,
// winograd*, LRN.
package kernels

import (
	"fmt"
	"math"
	"strings"
)

// Builder assembles one .entry kernel as PTX text.
type Builder struct {
	name       string
	params     []string
	decls      []string
	body       []string
	counts     [numRegClasses]int
	labelCount int
}

// NewBuilder starts a kernel with the given entry name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// RegClass is a virtual-register class. Build declares the classes in
// this order (a fixed one, so a kernel's text is the same on every call).
type RegClass uint8

const (
	Pred RegClass = iota // %p<n>, .pred
	B32                  // %r<n>, .b32
	B64                  // %rd<n>, .b64
	F32                  // %f<n>, .f32
	B16                  // %h<n>, .b16
	numRegClasses
)

// regClasses holds each class's register-name prefix and PTX type.
var regClasses = [numRegClasses]struct{ prefix, typ string }{
	Pred: {"p", "pred"}, B32: {"r", "b32"}, B64: {"rd", "b64"}, F32: {"f", "f32"}, B16: {"h", "b16"},
}

// R allocates a fresh virtual register of the given class and returns its
// name (e.g. "%r7").
func (b *Builder) R(class RegClass) string {
	b.counts[class]++
	return fmt.Sprintf("%%%s%d", regClasses[class].prefix, b.counts[class])
}

// PtrParam declares a .u64 pointer parameter.
func (b *Builder) PtrParam(name string) string {
	b.params = append(b.params, fmt.Sprintf(".param .u64 %s", name))
	return name
}

// U32Param declares a .u32 scalar parameter.
func (b *Builder) U32Param(name string) string {
	b.params = append(b.params, fmt.Sprintf(".param .u32 %s", name))
	return name
}

// F32Param declares a .f32 scalar parameter.
func (b *Builder) F32Param(name string) string {
	b.params = append(b.params, fmt.Sprintf(".param .f32 %s", name))
	return name
}

// Shared declares a static shared-memory array of the given byte size.
func (b *Builder) Shared(name string, bytes, align int) string {
	b.decls = append(b.decls, fmt.Sprintf(".shared .align %d .b8 %s[%d];", align, name, bytes))
	return name
}

// I emits one instruction line.
func (b *Builder) I(format string, args ...interface{}) {
	b.body = append(b.body, "\t"+fmt.Sprintf(format, args...))
}

// L emits a label definition and returns the label name.
func (b *Builder) L(label string) string {
	b.body = append(b.body, label+":")
	return label
}

// NewLabel returns a unique label name (without emitting it).
func (b *Builder) NewLabel(hint string) string {
	b.labelCount++
	return fmt.Sprintf("%s_%d", strings.ToUpper(hint), b.labelCount)
}

// Build assembles the kernel body into a complete PTX translation unit
// fragment (without the module header; see Module).
func (b *Builder) Build() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".visible .entry %s(\n", b.name)
	for i, p := range b.params {
		sep := ","
		if i == len(b.params)-1 {
			sep = ""
		}
		fmt.Fprintf(&sb, "\t%s%s\n", p, sep)
	}
	sb.WriteString(")\n{\n")
	for class, n := range b.counts {
		if c := regClasses[class]; n > 0 {
			fmt.Fprintf(&sb, "\t.reg .%s %%%s<%d>;\n", c.typ, c.prefix, n+1)
		}
	}
	for _, d := range b.decls {
		sb.WriteString("\t" + d + "\n")
	}
	for _, line := range b.body {
		sb.WriteString(line + "\n")
	}
	sb.WriteString("\tret;\n}\n")
	return sb.String()
}

// Module wraps kernel fragments into a full PTX translation unit.
func Module(textures []string, kernelSrcs ...string) string {
	var sb strings.Builder
	sb.WriteString(".version 6.0\n.target sm_61\n.address_size 64\n\n")
	for _, t := range textures {
		fmt.Fprintf(&sb, ".global .texref %s;\n", t)
	}
	for _, k := range kernelSrcs {
		sb.WriteString(k)
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---- common code-generation helpers ----

// GlobalTidX emits code computing ctaid.x*ntid.x+tid.x into a fresh b32.
func (b *Builder) GlobalTidX() string {
	cta, nt, tid := b.R(B32), b.R(B32), b.R(B32)
	out := b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", cta)
	b.I("mov.u32 %s, %%ntid.x;", nt)
	b.I("mov.u32 %s, %%tid.x;", tid)
	b.I("mad.lo.s32 %s, %s, %s, %s;", out, cta, nt, tid)
	return out
}

// LoadPtr loads a pointer parameter and converts it to a global address.
func (b *Builder) LoadPtr(param string) string {
	rd := b.R(B64)
	b.I("ld.param.u64 %s, [%s];", rd, param)
	b.I("cvta.to.global.u64 %s, %s;", rd, rd)
	return rd
}

// LoadU32 loads a u32 parameter.
func (b *Builder) LoadU32(param string) string {
	r := b.R(B32)
	b.I("ld.param.u32 %s, [%s];", r, param)
	return r
}

// LoadF32 loads an f32 parameter.
func (b *Builder) LoadF32(param string) string {
	f := b.R(F32)
	b.I("ld.param.f32 %s, [%s];", f, param)
	return f
}

// ElemAddr emits address arithmetic: base + idx*elemSize (idx is b32).
func (b *Builder) ElemAddr(base, idx string, elemSize int) string {
	off := b.R(B64)
	out := b.R(B64)
	b.I("mul.wide.u32 %s, %s, %d;", off, idx, elemSize)
	b.I("add.s64 %s, %s, %s;", out, base, off)
	return out
}

// F32Imm formats a float32 immediate as a PTX 0f literal.
func F32Imm(v float32) string {
	return fmt.Sprintf("0f%08X", math.Float32bits(v))
}

// MovF32 emits a float constant into a fresh f32 register.
func (b *Builder) MovF32(v float32) string {
	f := b.R(F32)
	b.I("mov.f32 %s, %s;", f, F32Imm(v))
	return f
}

// GuardEnd emits "if idx >= n goto END" using a fresh predicate; the
// caller must emit the END label before ret (Build adds ret after body).
func (b *Builder) GuardEnd(idx, n, endLabel string) {
	p := b.R(Pred)
	b.I("setp.ge.u32 %s, %s, %s;", p, idx, n)
	b.I("@%s bra %s;", p, endLabel)
}

// ---- shared emitters ----
//
// Every emitter allocates its registers and labels in one fixed order, so
// a kernel's text depends only on the order it calls them in. Labels are
// passed in by name: fixed loop heads as given, generated ones as the
// hint handed to NewLabel.

// guardTid is the prologue of a one-thread-per-element kernel: it loads
// the u32 extent parameters and sends every thread whose global x index
// is not below their product to the exit label, which it returns along
// with the index and the loaded extents. The caller places the label
// last (b.L(end)).
func (b *Builder) guardTid(params ...string) (end, idx string, ext []string) {
	end = b.NewLabel("end")
	idx = b.GlobalTidX()
	for _, p := range params {
		ext = append(ext, b.LoadU32(p))
	}
	total := ext[0]
	if len(ext) > 1 {
		total = b.R(B32)
		b.I("mul.lo.u32 %s, %s, %s;", total, ext[0], ext[1])
		for _, e := range ext[2:] {
			b.I("mul.lo.u32 %s, %s, %s;", total, total, e)
		}
	}
	b.GuardEnd(idx, total, end)
	return end, idx, ext
}

// elemAddrs loads the pointer parameters, then emits the address of f32
// element idx in each of them, in the same order.
func (b *Builder) elemAddrs(idx string, params ...string) []string {
	bases := make([]string, len(params))
	for i, p := range params {
		bases[i] = b.LoadPtr(p)
	}
	addrs := make([]string, len(params))
	for i, base := range bases {
		addrs[i] = b.ElemAddr(base, idx, 4)
	}
	return addrs
}

// loop emits `for i = start; i < limit; i += step { body(i) }` over a
// fresh u32 counter. start, limit and step are registers or immediates;
// head is the loop label, endHint names the generated exit label.
func (b *Builder) loop(head, endHint, start, limit, step string, body func(i string)) {
	b.loopNext(head, "", endHint, start, limit, step, func(i, _ string) { body(i) })
}

// loopNext is loop with a `continue` target: a label generated from
// nextHint (ahead of the exit label) and placed just before the
// increment, which body branches to in order to skip an iteration.
func (b *Builder) loopNext(head, nextHint, endHint, start, limit, step string, body func(i, next string)) {
	i := b.R(B32)
	b.I("mov.u32 %s, %s;", i, start)
	b.L(head)
	p := b.R(Pred)
	var next string
	if nextHint != "" {
		next = b.NewLabel(nextHint)
	}
	end := b.NewLabel(endHint)
	b.I("setp.ge.u32 %s, %s, %s;", p, i, limit)
	b.I("@%s bra %s;", p, end)
	body(i, next)
	if next != "" {
		b.L(next)
	}
	b.I("add.u32 %s, %s, %s;", i, i, step)
	b.I("bra %s;", head)
	b.L(end)
}

// remDiv emits one step of a flat-index decomposition: rem = x % d and
// quot = x / d, in that order.
func (b *Builder) remDiv(x, d string) (rem, quot string) {
	rem, quot = b.R(B32), b.R(B32)
	b.I("rem.u32 %s, %s, %s;", rem, x, d)
	b.I("div.u32 %s, %s, %s;", quot, x, d)
	return rem, quot
}

// divRem is remDiv for the kernels that take the quotient first.
func (b *Builder) divRem(x, d string) (quot, rem string) {
	quot, rem = b.R(B32), b.R(B32)
	b.I("div.u32 %s, %s, %s;", quot, x, d)
	b.I("rem.u32 %s, %s, %s;", rem, x, d)
	return quot, rem
}

// flatIndex emits the row-major flat index ((i0*d1 + i1)*d2 + i2)… into
// a fresh register; after the leading index the arguments alternate
// extent, index: flatIndex(i0, d1, i1, d2, i2).
func (b *Builder) flatIndex(i0 string, extIdx ...string) string {
	out, acc := b.R(B32), i0
	for j := 0; j < len(extIdx); j += 2 {
		b.I("mad.lo.s32 %s, %s, %s, %s;", out, acc, extIdx[j], extIdx[j+1])
		acc = out
	}
	return out
}

// reduceShared emits a shared-memory tree reduction over width lanes (a
// power of two): every lane stores partial into its own slot, and after
// log2(width) halving steps the slot of lane 0 holds the op ("add" or
// "max") of all of them. loop is the loop label; endHint and skipHint
// name the generated exit and inactive-lane labels.
func (b *Builder) reduceShared(op string, width int, tid, slot, partial, loop, endHint, skipHint string) {
	b.I("st.shared.f32 [%s], %s;", slot, partial)
	b.I("bar.sync 0;")
	step := b.R(B32)
	b.I("mov.u32 %s, %d;", step, width/2)
	b.L(loop)
	pz := b.R(Pred)
	end := b.NewLabel(endHint)
	b.I("setp.eq.u32 %s, %s, 0;", pz, step)
	b.I("@%s bra %s;", pz, end)
	pact := b.R(Pred)
	skip := b.NewLabel(skipHint)
	b.I("setp.ge.u32 %s, %s, %s;", pact, tid, step)
	b.I("@%s bra %s;", pact, skip)
	offr, other := b.R(B32), b.R(B32)
	b.I("shl.b32 %s, %s, 2;", offr, step)
	b.I("add.u32 %s, %s, %s;", other, slot, offr)
	va, vb := b.R(F32), b.R(F32)
	b.I("ld.shared.f32 %s, [%s];", va, slot)
	b.I("ld.shared.f32 %s, [%s];", vb, other)
	b.I("%s.f32 %s, %s, %s;", op, va, va, vb)
	b.I("st.shared.f32 [%s], %s;", slot, va)
	b.L(skip)
	b.I("bar.sync 0;")
	b.I("shr.u32 %s, %s, 1;", step, step)
	b.I("bra %s;", loop)
	b.L(end)
}
