package debug

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/ptx"
)

// logBase is where the instruction log lives during replay — far above
// the allocator range so restored buffers can keep their original
// addresses (the captured pointer parameters remain valid verbatim).
const logBase = uint64(0x0000_0100_0000_0000)

const entryBytes = 16 // [0:4) pc, [8:16) value

// dbgParam is the appended log-pointer parameter (paper Fig. 3: "the
// results of each executed instruction that writes a value to a register
// is saved into a new global array in GPU memory").
const dbgParam = "_dbg_log"

// InstrumentKernel re-emits a kernel as PTX text with a (pc, value) store
// appended after every register-writing instruction — the analog of the
// paper's LLVM-based PTX instrumentation tool. Each original instruction
// is written as its source text (Instr.Raw), so the instrumented kernel is
// the original plus logging and nothing else. Each parameter is declared
// with its alignment and array length, so it keeps its offset; the log
// pointer arrives through an extra parameter after them, at the next
// 8-aligned offset. Each thread owns `entries` slots.
func InstrumentKernel(k *ptx.Kernel, entries int) string {
	var b strings.Builder
	b.WriteString(".version 6.0\n.target sm_61\n.address_size 64\n\n")
	fmt.Fprintf(&b, ".visible .entry %s(\n", k.Name)
	for _, p := range k.Params {
		b.WriteString("\t.param ")
		if p.Align != p.Type.Size() {
			fmt.Fprintf(&b, ".align %d ", p.Align)
		}
		fmt.Fprintf(&b, ".%s %s", p.Type, p.Name)
		if sz := p.Type.Size(); p.Size > sz {
			fmt.Fprintf(&b, "[%d]", p.Size/sz)
		}
		b.WriteString(",\n")
	}
	fmt.Fprintf(&b, "\t.param .u64 %s\n)\n{\n", dbgParam)

	// register declarations: original slots grouped by type + debug regs
	byType := map[ptx.Type][]string{}
	for slot := 0; slot < k.NumSlots; slot++ {
		t := k.RegType(slot)
		byType[t] = append(byType[t], k.RegName(slot))
	}
	for t := ptx.Type(1); t <= ptx.Pred; t++ {
		if names := byType[t]; len(names) > 0 {
			fmt.Fprintf(&b, "\t.reg .%s %s;\n", t, strings.Join(names, ", "))
		}
	}
	b.WriteString("\t.reg .u64 %dbgcur, %dbgend, %dbgw;\n")
	b.WriteString("\t.reg .b32 %dbgt1, %dbgt2, %dbgt3, %dbgt4;\n")
	b.WriteString("\t.reg .pred %dbgp;\n")
	for _, v := range k.SharedVars {
		fmt.Fprintf(&b, "\t.shared .align %d .b8 %s[%d];\n", v.Align, v.Name, v.Size)
	}
	for _, v := range k.LocalVars {
		fmt.Fprintf(&b, "\t.local .align %d .b8 %s[%d];\n", v.Align, v.Name, v.Size)
	}

	// prologue: per-thread log cursor = base + gtid*entries*entryBytes
	perThread := entries * entryBytes
	fmt.Fprintf(&b, `
	ld.param.u64 %%dbgcur, [%s];
	cvta.to.global.u64 %%dbgcur, %%dbgcur;
	mov.u32 %%dbgt1, %%ctaid.z;
	mov.u32 %%dbgt2, %%nctaid.y;
	mov.u32 %%dbgt3, %%ctaid.y;
	mad.lo.s32 %%dbgt1, %%dbgt1, %%dbgt2, %%dbgt3;
	mov.u32 %%dbgt2, %%nctaid.x;
	mov.u32 %%dbgt3, %%ctaid.x;
	mad.lo.s32 %%dbgt1, %%dbgt1, %%dbgt2, %%dbgt3;
	mov.u32 %%dbgt2, %%ntid.x;
	mov.u32 %%dbgt4, %%ntid.y;
	mul.lo.u32 %%dbgt2, %%dbgt2, %%dbgt4;
	mov.u32 %%dbgt4, %%ntid.z;
	mul.lo.u32 %%dbgt2, %%dbgt2, %%dbgt4;
	mul.lo.u32 %%dbgt1, %%dbgt1, %%dbgt2;
	mov.u32 %%dbgt3, %%tid.z;
	mov.u32 %%dbgt4, %%ntid.y;
	mul.lo.u32 %%dbgt3, %%dbgt3, %%dbgt4;
	mov.u32 %%dbgt4, %%tid.y;
	add.u32 %%dbgt3, %%dbgt3, %%dbgt4;
	mov.u32 %%dbgt4, %%ntid.x;
	mul.lo.u32 %%dbgt3, %%dbgt3, %%dbgt4;
	mov.u32 %%dbgt4, %%tid.x;
	add.u32 %%dbgt3, %%dbgt3, %%dbgt4;
	add.u32 %%dbgt1, %%dbgt1, %%dbgt3;
	mul.wide.u32 %%dbgw, %%dbgt1, %d;
	add.s64 %%dbgcur, %%dbgcur, %%dbgw;
	add.s64 %%dbgend, %%dbgcur, %d;
`, dbgParam, perThread, perThread)

	// body: labels, original instructions, instrumentation; the labels
	// at one PC in name order, so the text is the same on every call
	labelAt := map[int][]string{}
	for name, pc := range k.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	for _, names := range labelAt {
		slices.Sort(names)
	}
	for pc := range k.Instrs {
		for _, l := range labelAt[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		in := &k.Instrs[pc]
		fmt.Fprintf(&b, "\t%s\n", in.Raw)
		if !in.HasRegDst(k) {
			continue
		}
		var dstRegs []int32
		d := &in.Dst()[0]
		switch d.Kind {
		case ptx.OperandReg:
			dstRegs = append(dstRegs, d.Reg)
		case ptx.OperandVec:
			for _, e := range in.Elems(d) {
				if e.Kind == ptx.OperandReg {
					dstRegs = append(dstRegs, e.Reg)
				}
			}
		}
		for _, r := range dstRegs {
			slot := int(r)
			t := k.RegType(slot)
			if t == ptx.Pred {
				continue
			}
			st := "b32"
			if t.Size() == 8 {
				st = "b64"
			} else if t.Size() == 2 {
				st = "b16"
			}
			fmt.Fprintf(&b, "\tsetp.lt.u64 %%dbgp, %%dbgcur, %%dbgend;\n")
			// pc is stored off by one so that 0 unambiguously means
			// "no entry was logged" (thread never reached this point).
			fmt.Fprintf(&b, "\t@%%dbgp st.global.u32 [%%dbgcur], %d;\n", pc+1)
			fmt.Fprintf(&b, "\t@%%dbgp st.global.%s [%%dbgcur+8], %s;\n", st, k.RegName(slot))
			fmt.Fprintf(&b, "\t@%%dbgp add.s64 %%dbgcur, %%dbgcur, %d;\n", entryBytes)
		}
	}
	for _, l := range labelAt[len(k.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	b.WriteString("\tret;\n}\n")
	return b.String()
}

// replayInstrumented runs the instrumented kernel against the captured
// launch state on a machine with the given bugs and returns the raw log.
func replayInstrumented(rec *cudart.LaunchRecord, modText string, entries int, bugs exec.BugSet) ([]byte, int, error) {
	ctx := cudart.NewContext(bugs)
	mod, err := ctx.RegisterModule(modText)
	if err != nil {
		return nil, 0, fmt.Errorf("instrumented module: %w", err)
	}
	// Restore every captured buffer at its original address; the pointer
	// parameters then remain valid verbatim.
	for base, data := range rec.Buffers {
		ctx.Mem.Write(base, data)
	}
	params := append([]byte(nil), rec.Params...)
	for len(params)%8 != 0 {
		params = append(params, 0)
	}
	var ptr [8]byte
	binary.LittleEndian.PutUint64(ptr[:], logBase)
	params = append(params, ptr[:]...)

	// Even if the kernel faults mid-execution (a legitimate manifestation
	// of an injected bug), the log written so far is still in device
	// memory and remains useful for bisection.
	_, launchErr := ctx.CuLaunchKernel(mod, rec.Kernel, rec.GridDim, rec.BlockDim, params, rec.Shared)
	threads := rec.GridDim.Count() * rec.BlockDim.Count()
	log := make([]byte, threads*entries*entryBytes)
	ctx.Mem.Read(logBase, log)
	_ = launchErr
	return log, threads, nil
}

// bisectInstruction implements step 3: find the first (entry, thread) at
// which the golden and suspect logs disagree.
func (t *Tool) bisectInstruction(rec *cudart.LaunchRecord, entries int) (pc int, raw string, thread int, gv, bv uint64, err error) {
	k, ok := rec.Module.Kernels[rec.Kernel]
	if !ok {
		return 0, "", 0, 0, 0, fmt.Errorf("kernel %q not in captured module", rec.Kernel)
	}
	modText := InstrumentKernel(k, entries)
	goldenLog, threads, err := replayInstrumented(rec, modText, entries, exec.BugSet{})
	if err != nil {
		return 0, "", 0, 0, 0, fmt.Errorf("golden replay: %w", err)
	}
	buggyLog, _, err := replayInstrumented(rec, modText, entries, t.Bugs)
	if err != nil {
		return 0, "", 0, 0, 0, fmt.Errorf("suspect replay: %w", err)
	}
	// Pass 1: the first *value* divergence at a matching pc is the faulty
	// instruction. Pass 2 (fallback): the first control divergence in a
	// thread whose suspect log is non-empty — threads that never ran in a
	// crashed suspect replay log all-zero entries and must not win.
	report := func(p int, th int, gval, bval uint64) (int, string, int, uint64, uint64, error) {
		rawText := ""
		if p >= 0 && p < len(k.Instrs) {
			rawText = k.Instrs[p].Raw
		}
		return p, rawText, th, gval, bval, nil
	}
	for e := 0; e < entries; e++ {
		for th := 0; th < threads; th++ {
			off := (th*entries + e) * entryBytes
			gpc := binary.LittleEndian.Uint32(goldenLog[off:])
			bpc := binary.LittleEndian.Uint32(buggyLog[off:])
			gval := binary.LittleEndian.Uint64(goldenLog[off+8:])
			bval := binary.LittleEndian.Uint64(buggyLog[off+8:])
			if gpc != 0 && gpc == bpc && gval != bval {
				return report(int(gpc)-1, th, gval, bval)
			}
		}
	}
	for e := 0; e < entries; e++ {
		for th := 0; th < threads; th++ {
			off := (th*entries + e) * entryBytes
			gpc := binary.LittleEndian.Uint32(goldenLog[off:])
			bpc := binary.LittleEndian.Uint32(buggyLog[off:])
			gval := binary.LittleEndian.Uint64(goldenLog[off+8:])
			bval := binary.LittleEndian.Uint64(buggyLog[off+8:])
			if (gpc != bpc) && bpc != 0 {
				return report(int(gpc)-1, th, gval, bval)
			}
		}
	}
	return -1, "", -1, 0, 0, fmt.Errorf("instrumented replays agree; no faulty instruction found (log too small?)")
}
