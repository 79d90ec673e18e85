package exec

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ptx"
)

// TestProgramPerKernelAndBugSet: Machines with one BugSet share a kernel's
// program; another BugSet lowers its own.
func TestProgramPerKernelAndBugSet(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	p := params(uint64(0), uint64(0), uint64(0), 0)
	grid := func(m *Machine) *Grid {
		g, err := m.NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := grid(cleanMachine()), grid(cleanMachine())
	if a.prog != b.prog || &a.RegMap()[0] != &b.RegMap()[0] {
		t.Error("two Machines with one BugSet lowered the kernel twice")
	}
	if c := grid(NewMachine(BugSet{BreakOp: ptx.OpAdd}, nil, nil)); c.prog == a.prog {
		t.Error("a Machine with another BugSet shares the clean program")
	}
}

// TestBreakOpSurvivesSharedPrograms: BreakOp perturbs add.f32, which a
// clean Machine specialises, whichever Machine lowers the kernel first.
func TestBreakOpSurvivesSharedPrograms(t *testing.T) {
	sum := uint64(math.Float32bits(1.75))
	for _, cleanFirst := range []bool{true, false} {
		k := &ptx.Kernel{Name: "one", NumSlots: numTestSlots, Instrs: []ptx.Instr{aluInstr(ptx.Instr{Op: ptx.OpAdd, T: ptx.F32})}}
		clean, broken := cleanMachine(), NewMachine(BugSet{BreakOp: ptx.OpAdd}, nil, nil)
		order := []*Machine{broken, clean}
		if cleanFirst {
			order = []*Machine{clean, broken}
		}
		for _, m := range order {
			c, w, d := kernelWarp(t, m, k)
			regs := newSlotRegs(c, w)
			for l := 0; l < WarpSize; l++ {
				regs.set(slotA, l, uint64(math.Float32bits(1.5)))
				regs.set(slotB, l, uint64(math.Float32bits(0.25)))
				regs.set(slotPred, l, 1)
			}
			var info StepInfo
			if err := m.StepWarp(c, w, m.cov, &info); err != nil {
				t.Fatal(err)
			}
			want, h := sum, haddf32
			if m == broken {
				want, h = ^sum, hgeneric
			}
			if got := regs.get(slotDst, 0); got != want || d.h != h {
				t.Errorf("clean first %v, broken %v: handler %d gives %#x, want handler %d giving %#x",
					cleanFirst, m == broken, d.h, got, h, want)
			}
		}
	}
}

// TestNewGridLowersOncePerProcess: a Machine's first launch of a kernel
// another Machine lowered allocates only its Grid.
func TestNewGridLowersOncePerProcess(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	p := params(uint64(0), uint64(0), uint64(0), 0)
	if _, err := cleanMachine().NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, p, 0); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	ms := make([]*Machine, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range ms {
		ms[i] = cleanMachine()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ms[next].NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, p, 0); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 1 {
		t.Errorf("a fresh Machine's NewGrid of a lowered kernel allocates %v times, want 1", allocs)
	}
}

// TestConcurrentFirstLaunch: Machines racing to lower one kernel all get
// the same program (run under -race in CI).
func TestConcurrentFirstLaunch(t *testing.T) {
	k := mustKernel(t, vecAddSrc, "vecadd")
	p := params(uint64(0), uint64(0), uint64(0), 0)
	progs := make([]*program, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		m := cleanMachine()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			g, err := m.NewGrid(k, Dim3{X: 1}, Dim3{X: WarpSize}, p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = g.prog
		}()
	}
	close(start)
	wg.Wait()
	for i, pr := range progs {
		if pr == nil || pr != progs[0] {
			t.Fatalf("machine %d got program %p, machine 0 got %p", i, pr, progs[0])
		}
	}
}
