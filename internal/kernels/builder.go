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
	"slices"
	"strings"
)

// Builder assembles one .entry kernel as PTX text.
type Builder struct {
	name       string
	params     []string
	decls      []string
	body       []string
	counts     map[string]int
	labelCount int
}

// NewBuilder starts a kernel with the given entry name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, counts: make(map[string]int)}
}

// regClasses are the register classes and their PTX types, in the order
// Build declares them (a fixed one, so a kernel's text is the same on
// every call).
var regClasses = [][2]string{
	{"p", "pred"}, {"r", "b32"}, {"rd", "b64"}, {"f", "f32"}, {"fd", "f64"}, {"h", "b16"},
}

// R allocates a fresh virtual register of the given class and returns its
// name (e.g. "%r7").
func (b *Builder) R(class string) string {
	if !slices.ContainsFunc(regClasses, func(c [2]string) bool { return c[0] == class }) {
		panic("kernels: unknown register class " + class)
	}
	b.counts[class]++
	return fmt.Sprintf("%%%s%d", class, b.counts[class])
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
	for _, c := range regClasses {
		if n := b.counts[c[0]]; n > 0 {
			fmt.Fprintf(&sb, "\t.reg .%s %%%s<%d>;\n", c[1], c[0], n+1)
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
	cta, nt, tid := b.R("r"), b.R("r"), b.R("r")
	out := b.R("r")
	b.I("mov.u32 %s, %%ctaid.x;", cta)
	b.I("mov.u32 %s, %%ntid.x;", nt)
	b.I("mov.u32 %s, %%tid.x;", tid)
	b.I("mad.lo.s32 %s, %s, %s, %s;", out, cta, nt, tid)
	return out
}

// LoadPtr loads a pointer parameter and converts it to a global address.
func (b *Builder) LoadPtr(param string) string {
	rd := b.R("rd")
	b.I("ld.param.u64 %s, [%s];", rd, param)
	b.I("cvta.to.global.u64 %s, %s;", rd, rd)
	return rd
}

// LoadU32 loads a u32 parameter.
func (b *Builder) LoadU32(param string) string {
	r := b.R("r")
	b.I("ld.param.u32 %s, [%s];", r, param)
	return r
}

// LoadF32 loads an f32 parameter.
func (b *Builder) LoadF32(param string) string {
	f := b.R("f")
	b.I("ld.param.f32 %s, [%s];", f, param)
	return f
}

// ElemAddr emits address arithmetic: base + idx*elemSize (idx is b32).
func (b *Builder) ElemAddr(base, idx string, elemSize int) string {
	off := b.R("rd")
	out := b.R("rd")
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
	f := b.R("f")
	b.I("mov.f32 %s, %s;", f, F32Imm(v))
	return f
}

// GuardEnd emits "if idx >= n goto END" using a fresh predicate; the
// caller must emit the END label before ret (Build adds ret after body).
func (b *Builder) GuardEnd(idx, n, endLabel string) {
	p := b.R("p")
	b.I("setp.ge.u32 %s, %s, %s;", p, idx, n)
	b.I("@%s bra %s;", p, endLabel)
}
