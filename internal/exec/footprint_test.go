package exec

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kernels"
	"repro/internal/ptx"
)

// The per-instruction records' sizes: the parsed operand and instruction
// and the lowered instruction's hot record, which StepWarp reads on
// every execution.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"ptx.Operand", unsafe.Sizeof(ptx.Operand{}), 56},
		{"ptx.Instr", unsafe.Sizeof(ptx.Instr{}), 96},
		{"exec.instr", unsafe.Sizeof(instr{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, at most %d", c.name, c.size, c.max)
		}
	}
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLibraryFootprint measures what the kernel library holds for the
// life of a process: its modules parsed afresh (kernels.ParsedModules is
// once per process) and all of its kernels lowered. It logs each side in
// KB and in bytes per PTX instruction and holds each to a budget.
func TestLibraryFootprint(t *testing.T) {
	const parseBudget, lowerBudget = 2000 << 10, 500 << 10
	srcs := kernels.AllModules()
	before := liveHeap()
	mods := make([]*ptx.Module, len(srcs))
	for i, src := range srcs {
		m, err := ptx.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mods[i] = m
	}
	srcs = nil
	parsed := liveHeap()
	var progs []*program
	instrs := 0
	for _, m := range mods {
		for _, name := range m.KernelNames() {
			k := m.Kernels[name]
			instrs += len(k.Instrs)
			progs = append(progs, decode(k, BugSet{}))
		}
	}
	lowered := liveHeap()
	runtime.KeepAlive(mods)
	runtime.KeepAlive(progs)

	parse, lower := int64(parsed)-int64(before), int64(lowered)-int64(parsed)
	t.Logf("%d kernels, %d PTX instructions", len(progs), instrs)
	t.Logf("parsed:  %5d KB, %4d B/instr (budget %d KB)", parse>>10, parse/int64(instrs), parseBudget>>10)
	t.Logf("lowered: %5d KB, %4d B/instr (budget %d KB)", lower>>10, lower/int64(instrs), lowerBudget>>10)
	if parse > parseBudget {
		t.Errorf("the parsed library holds %d KB, budget %d KB", parse>>10, parseBudget>>10)
	}
	if lower > lowerBudget {
		t.Errorf("the lowered library holds %d KB, budget %d KB", lower>>10, lowerBudget>>10)
	}
}
