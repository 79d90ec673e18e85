package ptx

import (
	"fmt"
	"strings"
)

// Print emits the module as parseable PTX text. Round-tripping a module
// through Print and Parse yields an equivalent module, which the parser
// and fuzz tests check.
func Print(m *Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".version %s\n", orDefault(m.Version, "6.0"))
	fmt.Fprintf(&b, ".target %s\n", orDefault(m.Target, "sm_61"))
	fmt.Fprintf(&b, ".address_size %d\n\n", m.AddressSize)
	for _, t := range m.Textures {
		fmt.Fprintf(&b, ".global .texref %s;\n", t)
	}
	for _, name := range m.KernelOrder {
		printKernel(&b, m.Kernels[name])
	}
	return b.String()
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func printKernel(b *strings.Builder, k *Kernel) {
	fmt.Fprintf(b, ".visible .entry %s(\n", k.Name)
	for i, p := range k.Params {
		comma := ","
		if i == len(k.Params)-1 {
			comma = ""
		}
		if p.Size > p.Type.Size() {
			fmt.Fprintf(b, "\t.param .align %d .%s %s[%d]%s\n", p.Align, p.Type, p.Name, p.Size/p.Type.Size(), comma)
		} else {
			fmt.Fprintf(b, "\t.param .%s %s%s\n", p.Type, p.Name, comma)
		}
	}
	fmt.Fprintf(b, ")\n{\n")
	// Register declarations: one per declared register name. Ranged
	// declarations are flattened; this is still valid PTX for our parser.
	byType := map[Type][]string{}
	for slot := 0; slot < k.NumSlots; slot++ {
		t := k.regTypes[slot]
		byType[t] = append(byType[t], k.regNames[slot])
	}
	for t := Type(1); t < Pred+1; t++ {
		names := byType[t]
		if len(names) == 0 {
			continue
		}
		fmt.Fprintf(b, "\t.reg .%s %s;\n", t, strings.Join(names, ", "))
	}
	for _, v := range k.SharedVars {
		fmt.Fprintf(b, "\t.shared .align %d .b8 %s[%d];\n", v.Align, v.Name, v.Size)
	}
	for _, v := range k.LocalVars {
		fmt.Fprintf(b, "\t.local .align %d .b8 %s[%d];\n", v.Align, v.Name, v.Size)
	}
	b.WriteString("\n")

	// invert labels: pc -> names
	labelAt := map[int][]string{}
	for name, pc := range k.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	for pc := range k.Instrs {
		for _, l := range labelAt[pc] {
			fmt.Fprintf(b, "%s:\n", l)
		}
		fmt.Fprintf(b, "\t%s\n", FormatInstr(k, &k.Instrs[pc]))
	}
	for _, l := range labelAt[len(k.Instrs)] {
		fmt.Fprintf(b, "%s:\n", l)
	}
	b.WriteString("}\n\n")
}
