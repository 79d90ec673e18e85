package kernels_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// parsePin is a sha256, per library module, over every parsed field of
// every instruction of its kernels (writeInstr), with each kernel's labels
// and register slots. TestLibraryPTXPinned pins the text; this pins what
// ptx.Parse makes of it, so a change to the parser's records must leave
// it alone.
var parsePin = map[string]string{
	"elementwise":  "1156e69cf1f1c16134f4aceb65d20df65e43f284e1394f4e937f4bc795d8f793",
	"gemm":         "4dcc3296993a6c74e9c5c6979e31314b656a038b515c5bd79919187543ba1251",
	"conv_direct":  "1df04c86f841eefbacc4ad2dd8629bde90a62cdce46b1af886f9bafa2ea14a2a",
	"fft":          "7a32fbb8e5dc9defa21ed574069305ce9382f31212c4e861e7f94c18bd991e50",
	"winograd":     "1592b274a64366f091e72795de0b1f1057441a1a58d1b94e5fcf2952a75129e4",
	"pool_softmax": "c93f83875a2a4905a2524e3a0a6c1176ac7fc74aac16407aab3fb47b87152d2a",
	"lrn":          "8f76dae37e0c1f963da8fca48a1210bcad004a1b14f6b58e92c65762adaac725",
	"transformer":  "a1f7cd50ef9169fc54329b06caccd8f7dcc5f7d66fa1d321ba8c1de65ad259d6",
	"decode":       "58c7f44a84502f1db92a14bd5dcf5773568908acf06c99714b9173ec855d6ed3",
	"train":        "bb7615414bac909f8a31d767bc777ee8d56988e1028de2188366d3f2ea264297",
}

// writeInstr writes every parsed field of in: opcode, types, modifiers,
// guard, each operand by kind, branch label, target and reconvergence PC,
// and the source text.
func writeInstr(h hash.Hash, in *ptx.Instr) {
	fmt.Fprintf(h, "%v %v %v cmp=%v atom=%v space=%v vec=%d wide=%v hi=%v lo=%v to=%v rnd=%d geom=%d",
		in.Op, in.T, in.T2, in.Cmp, in.Atom, in.Space, in.Vec, in.Wide, in.Hi, in.Lo, in.To, in.Rnd, in.Geom)
	fmt.Fprintf(h, " @%d neg=%v label=%q target=%d rpc=%d dst[", in.PredReg, in.PredNeg, in.Label, in.Target, in.RPC)
	for i := range in.Dst() {
		writeOperand(h, in, &in.Dst()[i])
	}
	fmt.Fprint(h, "] src[")
	for i := range in.Src() {
		writeOperand(h, in, &in.Src()[i])
	}
	fmt.Fprintf(h, "] %q\n", in.Raw)
}

// writeOperand writes the fields an operand of in gives meaning to by its
// kind.
func writeOperand(h hash.Hash, in *ptx.Instr, o *ptx.Operand) {
	switch o.Kind {
	case ptx.OperandReg:
		fmt.Fprintf(h, "reg %d;", o.Reg)
	case ptx.OperandSReg:
		fmt.Fprintf(h, "sreg %v;", o.SReg)
	case ptx.OperandImm:
		fmt.Fprintf(h, "imm %#x float=%v;", o.Imm, o.FloatImm)
	case ptx.OperandMem:
		fmt.Fprintf(h, "mem %d %q %+d;", o.Base, o.Sym, o.Offset)
	case ptx.OperandVec:
		fmt.Fprint(h, "vec{")
		for i := range in.Elems(o) {
			writeOperand(h, in, &in.Elems(o)[i])
		}
		fmt.Fprint(h, "};")
	case ptx.OperandSym:
		fmt.Fprintf(h, "sym %q;", o.Sym)
	default:
		fmt.Fprintf(h, "kind %d;", o.Kind)
	}
}

func TestLibraryParsePinned(t *testing.T) {
	srcs := kernels.AllModules()
	if len(srcs) != len(moduleNames) {
		t.Fatalf("AllModules returned %d modules, the pin names %d", len(srcs), len(moduleNames))
	}
	for i, src := range srcs {
		m, err := ptx.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, name := range m.KernelNames() {
			k := m.Kernels[name]
			fmt.Fprintf(h, "kernel %s: %d instructions, labels", name, len(k.Instrs))
			labels := slices.Sorted(maps.Keys(k.Labels))
			for _, l := range labels {
				fmt.Fprintf(h, " %s=%d", l, k.Labels[l])
			}
			fmt.Fprint(h, ", slots")
			for s := 0; s < k.NumSlots; s++ {
				fmt.Fprintf(h, " %s:%v", k.RegName(s), k.RegType(s))
			}
			fmt.Fprintln(h)
			for pc := range k.Instrs {
				writeInstr(h, &k.Instrs[pc])
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := parsePin[moduleNames[i]]; got != want {
			t.Errorf("module %s: parsed instructions hash %s, pinned %s", moduleNames[i], got, want)
		}
	}
}
