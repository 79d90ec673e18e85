package exec

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/ptx"
)

// useBeforeDef is the use-before-definition check: an error naming k and
// every register some thread's path reads before any instruction writes
// it (readFirst), nil when there is none. Such a read returns zero here
// (CTA.Reset) and whatever the register held on hardware.
func useBeforeDef(k *ptx.Kernel) error {
	var names []string
	for _, s := range readFirst(k) {
		names = append(names, k.RegName(int(s)))
	}
	if len(names) == 0 {
		return nil
	}
	return fmt.Errorf("kernel %s reads %s before writing it", k.Name, strings.Join(names, ", "))
}

// readFirst returns the slots some thread's path reads before any
// instruction writes them, ascending: the allocator's liveness (liveIn)
// at PC 0 over the threads' control flow, without the warp's extra edges.
func readFirst(k *ptx.Kernel) []int32 {
	cfg, err := ptx.BuildCFG(k)
	if err != nil {
		return nil
	}
	succs := make([][]int, len(cfg.Blocks))
	for b, blk := range cfg.Blocks {
		succs[b] = blk.Succs
	}
	var slots []int32
	liveIn(k, issueTable(k), cfg, succs)[0].each(func(s int32) { slots = append(slots, s) })
	return slots
}

// TestLibraryRegsDefinedBeforeRead keeps the library free of reads before
// writes: no register of any library kernel is live at its entry. It logs
// the library's register slots against the rows they are allocated onto.
// A deliberately broken kernel must be named, with its register.
func TestLibraryRegsDefinedBeforeRead(t *testing.T) {
	mods, err := kernels.ParsedModules()
	if err != nil {
		t.Fatal(err)
	}
	slots, rows, nk := 0, 0, 0
	for i, m := range mods {
		for _, name := range m.KernelNames() {
			k := m.Kernels[name]
			if err := useBeforeDef(k); err != nil {
				t.Errorf("module %d: %v", i, err)
			}
			ra := allocRegs(k, issueTable(k))
			if ra.rows > k.NumSlots {
				t.Errorf("module %d: kernel %s has %d rows for %d register slots", i, name, ra.rows, k.NumSlots)
			}
			slots, rows, nk = slots+k.NumSlots, rows+ra.rows, nk+1
		}
	}
	t.Logf("library: %d kernels, %d register slots allocated onto %d rows", nk, slots, rows)

	m, err := ptx.Parse(`.visible .entry broken(.param .u64 p)
{
	.reg .b32 %r<4>;
	.reg .b64 %rd<2>;
	ld.param.u64 %rd1, [p];
	mov.u32 %r1, 7;
	add.u32 %r3, %r1, %r2;
	st.global.u32 [%rd1], %r3;
	ret;
}`)
	if err != nil {
		t.Fatal(err)
	}
	err = useBeforeDef(m.Kernels["broken"])
	if err == nil || !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "%r2") ||
		strings.Contains(err.Error(), "%r1") {
		t.Fatalf("the check says %v; want kernel broken reading %%r2 alone", err)
	}
}

// FuzzRegAlloc holds the allocator to a naive checker. For every kernel of
// anything that parses, the checker decides "slot v is live at pc" by a
// forward search for an instruction reading v before one overwriting it,
// with its own operand walk and CFG, and with what an instruction
// overwrites read off the decoded program. It searches twice: along the
// paths a thread can take, and along those a warp can take, where a
// diverged branch's taken side, once it reaches the reconvergence PC or
// its lanes end, may be followed by the fall-through. No two slots live at one PC
// for the warp, or defined at it, may share a row; the rows may not
// outnumber the slots; useBeforeDef must name exactly the slots a thread
// can find live at PC 0; and each slot a warp can find live there must
// have a row to itself.
// Seeded with the library's modules and, under testdata, the parser's
// fuzz seeds and a few control-flow shapes.
func FuzzRegAlloc(f *testing.F) {
	for _, src := range kernels.AllModules() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := ptx.Parse(src)
		if err != nil {
			return
		}
		for _, name := range mod.KernelNames() {
			checkAllocation(t, mod.Kernels[name])
		}
	})
}

// checkAllocation runs the naive checker of FuzzRegAlloc on one kernel.
func checkAllocation(t *testing.T, k *ptx.Kernel) {
	t.Helper()
	ra := allocRegs(k, issueTable(k))
	p := NewMachine(BugSet{}, nil, nil).program(k)
	if p.rows != ra.rows || fmt.Sprint(p.row) != fmt.Sprint(ra.row) {
		t.Fatalf("kernel %s: the program's allocation differs from a second one", k.Name)
	}
	if ra.rows > k.NumSlots {
		t.Fatalf("kernel %s: %d rows for %d slots", k.Name, ra.rows, k.NumSlots)
	}
	n := len(k.Instrs)
	uses, defs, killed := make([][]int32, n), make([][]int32, n), make([][]int32, n)
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		reg := func(into *[]int32, o *ptx.Operand) {
			if o.Kind == ptx.OperandReg && o.Reg >= 0 && int(o.Reg) < k.NumSlots {
				*into = append(*into, o.Reg)
			}
		}
		if in.PredReg >= 0 {
			reg(&uses[pc], &ptx.Operand{Kind: ptx.OperandReg, Reg: in.PredReg})
		}
		for i := range in.Src() {
			o := &in.Src()[i]
			reg(&uses[pc], o)
			if o.Kind == ptx.OperandMem && o.Base >= 0 {
				reg(&uses[pc], &ptx.Operand{Kind: ptx.OperandReg, Reg: o.Base})
			}
			for j := range in.Elems(o) {
				reg(&uses[pc], &in.Elems(o)[j])
			}
		}
		for i := range in.Dst() {
			o := &in.Dst()[i]
			reg(&defs[pc], o)
			for j := range in.Elems(o) {
				reg(&defs[pc], &in.Elems(o)[j])
			}
		}
		if in.PredReg >= 0 {
			continue
		}
		// What the decoded instruction overwrites in every active lane;
		// one the decoder rejected ends the grid, so it overwrites all.
		d := &p.code[pc]
		for _, v := range defs[pc] {
			writes := d.h == herr
			for _, r := range d.dst[:d.ndst] {
				writes = writes || r == ra.row[v]*WarpSize
			}
			if writes {
				killed[pc] = append(killed[pc], v)
			}
		}
	}
	// A thread goes from pc to succs(pc), and may end after it (ends).
	succs := func(pc int) []int {
		in := &k.Instrs[pc]
		var out []int
		if in.Op == ptx.OpBra && in.Target >= 0 && int(in.Target) < n {
			out = append(out, int(in.Target))
		}
		ends := in.Op == ptx.OpBra || in.Op == ptx.OpRet || in.Op == ptx.OpExit
		if pc+1 < n && (!ends || in.PredReg >= 0) {
			out = append(out, pc+1)
		}
		return out
	}
	ends := func(pc int) bool {
		in := &k.Instrs[pc]
		return in.Op == ptx.OpRet || in.Op == ptx.OpExit || pc+1 == n && (in.Op != ptx.OpBra || in.PredReg >= 0)
	}
	// A warp also jumps where its SIMT stack sends it: from the taken side
	// of a guarded bra (the PCs reachable from its target short of its
	// reconvergence PC), on reaching that PC or ending, to the
	// fall-through.
	jumps := make([][]int, n)
	for b := range k.Instrs {
		in := &k.Instrs[b]
		if in.Op != ptx.OpBra || in.PredReg < 0 || b+1 == n || in.Target < 0 || int(in.Target) >= n {
			continue
		}
		target, rpc := int(in.Target), int(in.RPC)
		if rpc < 0 || rpc > n {
			rpc = n
		}
		if target == rpc {
			continue
		}
		seen := map[int]bool{target: true}
		for queue := []int{target}; len(queue) > 0; queue = queue[1:] {
			x := queue[0]
			if ends(x) || slices.Contains(succs(x), rpc) {
				jumps[x] = append(jumps[x], b+1)
			}
			for _, s := range succs(x) {
				if s != rpc && !seen[s] {
					seen[s] = true
					queue = append(queue, s)
				}
			}
		}
	}
	warpSuccs := func(pc int) []int { return append(succs(pc), jumps[pc]...) }

	threadLive, warpLive := liveAt(k, uses, killed, succs), liveAt(k, uses, killed, warpSuccs)
	for pc := range n {
		owner := map[int32]int32{} // row -> a slot live or defined here
		claim := func(v int32) {
			r := ra.row[v]
			if o, ok := owner[r]; ok && o != v {
				t.Fatalf("kernel %s pc %d (%s): slots %d and %d are both live or defined and share row %d",
					k.Name, pc, k.Instrs[pc].Raw, o, v, r)
			}
			owner[r] = v
		}
		for v := range warpLive {
			if warpLive[v][pc] {
				claim(int32(v))
			}
		}
		for _, v := range defs[pc] {
			claim(v)
		}
	}
	if n == 0 {
		return
	}
	var first []int32
	for v := range threadLive {
		if threadLive[v][0] {
			first = append(first, int32(v))
		}
	}
	if got := readFirst(k); fmt.Sprint(got) != fmt.Sprint(first) {
		t.Fatalf("kernel %s: the use-before-definition check finds slots %v read first, the checker %v", k.Name, got, first)
	}
	// A slot read before any write keeps a row nothing else writes, so the
	// read sees CTA.Reset's zero and a scoreboard entry no def has set.
	for u := range warpLive {
		if !warpLive[u][0] {
			continue
		}
		for v, r := range ra.row {
			if r == ra.row[u] && v != u {
				t.Fatalf("kernel %s: slot %d, live at entry, shares row %d with slot %d", k.Name, u, r, v)
			}
		}
	}
}

// liveAt returns live[v][pc]: whether some path from pc along succs reads
// slot v (uses) before an instruction overwrites it (killed), by a
// forward search per slot and PC.
func liveAt(k *ptx.Kernel, uses, killed [][]int32, succs func(pc int) []int) [][]bool {
	n := len(k.Instrs)
	has := func(l []int32, v int32) bool { return slices.Contains(l, v) }
	// state[v][pc]: 1 live, -1 dead, 0 not searched yet. A search that
	// finds no reader proves every instruction it visited dead too.
	state := make([][]int8, k.NumSlots)
	seen := make([]int, n)
	var queue []int
	for v := range state {
		state[v] = make([]int8, n)
		for start := n - 1; start >= 0; start-- {
			queue = append(queue[:0], start)
			seen[start] = v*n + start + 1
			found := false
			for i := 0; i < len(queue) && !found; i++ {
				q := queue[i]
				switch {
				case has(uses[q], int32(v)) || state[v][q] == 1:
					found = true
				case state[v][q] == -1 || has(killed[q], int32(v)):
				default:
					for _, s := range succs(q) {
						if seen[s] != v*n+start+1 {
							seen[s] = v*n + start + 1
							queue = append(queue, s)
						}
					}
				}
			}
			if found {
				state[v][start] = 1
				continue
			}
			for _, q := range queue {
				state[v][q] = -1
			}
		}
	}
	live := make([][]bool, k.NumSlots)
	for v := range live {
		live[v] = make([]bool, n)
		for pc, st := range state[v] {
			live[v][pc] = st == 1
		}
	}
	return live
}

// TestRowsHoldTheirDefs runs every kernel of the library and of
// FuzzRegAlloc's checked-in corpus and holds each executed instruction to
// what the allocation promises the timing scoreboard (checkRowOwners).
func TestRowsHoldTheirDefs(t *testing.T) {
	srcs := kernels.AllModules()
	files, err := filepath.Glob("testdata/fuzz/FuzzRegAlloc/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs = append(srcs, src)
	}
	steps := 0
	for _, src := range srcs {
		mod, err := ptx.Parse(src)
		if err != nil {
			continue
		}
		for _, name := range mod.KernelNames() {
			steps += checkRowOwners(t, mod.Kernels[name])
		}
	}
	t.Logf("%d kernel sources, %d warp instructions checked", len(srcs), steps)
}

// checkRowOwners executes one CTA of 64 threads of k, a warp instruction
// at a time, until the CTA ends or fails (a fault, a decode error, or 2,000
// instructions in a warp), and returns the instructions executed. Every
// 8-byte parameter is an address in untouched memory, every 4-byte one
// 16. When an instruction reads a slot, the last instruction of the warp
// that wrote the slot's row must have written that slot, or nothing has
// written the row yet: a scoreboard with an entry per row then holds at
// every read what one with an entry per slot would, and the modelled
// cycles cannot tell the allocation from none. The same must hold per
// lane for the lanes the instruction executes for, counting only the
// lanes each write executed for: then every lane reads the value a
// register file with a row per slot would hold, or that file's zero.
func checkRowOwners(t *testing.T, k *ptx.Kernel) int {
	t.Helper()
	params := make([]byte, 0, 64)
	for _, p := range k.Params {
		for len(params) < p.Offset {
			params = append(params, 0)
		}
		switch p.Size {
		case 8:
			params = binary.LittleEndian.AppendUint64(params, 1<<32+uint64(p.Offset)<<16)
		case 4:
			params = binary.LittleEndian.AppendUint32(params, 16)
		default:
			params = append(params, make([]byte, p.Size)...)
		}
	}
	m := NewMachine(BugSet{}, device.NewMemory(), device.NewTextureRegistry())
	m.warpCeiling = 2000
	g, err := m.NewGrid(k, Dim3{X: 1}, Dim3{X: 64}, params, 0)
	if err != nil {
		return 0
	}
	slots := issueTable(k) // Src and Dst in slots
	row := g.RegMap()
	c := g.InitCTA(0, nil)
	// per warp and row: the slot the warp last wrote there, and the slot
	// each lane last wrote there; -1 for none
	owner := make([][]int32, len(c.Warps))
	laneOwner := make([][][WarpSize]int32, len(c.Warps))
	for i := range owner {
		owner[i] = make([]int32, g.RegRows())
		laneOwner[i] = make([][WarpSize]int32, g.RegRows())
		for r := range owner[i] {
			owner[i][r] = -1
			for l := range laneOwner[i][r] {
				laneOwner[i][r][l] = -1
			}
		}
	}
	var info StepInfo
	steps := 0
	for {
		progressed := false
		for wi, w := range c.Warps {
			for !w.Done && !w.AtBarrier {
				pc := m.PeekPC(c, w)
				if err := m.StepWarp(c, w, nil, &info); err != nil {
					return steps
				}
				progressed = true
				if pc < 0 {
					continue
				}
				steps++
				for _, s := range slots.Src(pc) {
					if o := owner[wi][row[s]]; o != s && o != -1 {
						t.Fatalf("kernel %s warp %d pc %d (%s) reads slot %d from row %d, which slot %d wrote last",
							k.Name, wi, pc, k.Instrs[pc].Raw, s, row[s], o)
					}
					for l := range WarpSize {
						if o := laneOwner[wi][row[s]][l]; info.ActiveMask>>l&1 != 0 && o != s && o != -1 {
							t.Fatalf("kernel %s warp %d lane %d pc %d (%s) reads slot %d from row %d, which slot %d wrote last",
								k.Name, wi, l, pc, k.Instrs[pc].Raw, s, row[s], o)
						}
					}
				}
				for _, d := range slots.Dst(pc) {
					owner[wi][row[d]] = d
					for l := range WarpSize {
						if info.ActiveMask>>l&1 != 0 {
							laneOwner[wi][row[d]][l] = d
						}
					}
				}
			}
		}
		if !c.ReleaseBarrier() && !progressed {
			return steps
		}
	}
}
