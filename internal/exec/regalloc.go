package exec

import (
	"math/bits"
	"slices"

	"repro/internal/ptx"
)

// PTX registers are virtual: ptxas maps them onto a few physical ones.
// The decoder does the same for the register file: it computes which
// register slots are live at each instruction and colours the interference
// graph greedily, so slots never live at once share a row of Warp.Regs
// and of the timing scoreboard.
//
// Liveness is taken over the warp's control flow, not just a thread's
// (warpSuccs): a row's scoreboard entry is per warp and every def sets it
// whichever lanes are active, so a value the lanes parked on the SIMT
// stack still need must keep its row while the other side of a branch
// runs. Per lane the data needs less: every write is per active lane and
// no opcode reads another lane's registers. An opcode that does (shfl,
// vote) would have to make its sources interfere with everything live
// across it.
//
// The rules:
//   - Uses are every operand as written, the walk issueTable does (guard
//     predicate, every Src, memory bases, vector elements), so a row's
//     scoreboard entry at any read is the def time of the one live value
//     in it.
//   - Only an unguarded instruction that writes a register in every active
//     lane kills its old value (kills).
//   - Every destination, written or not, interferes with every slot live
//     into or out of its instruction and with the instruction's other
//     destinations: no destination shares a row with a source.
//   - A slot live at entry (read on some path before any write) gets a row
//     of its own, so CTA.Reset's zeroing still makes that read return 0
//     and its scoreboard entry stays clear until its first def.

// regAlloc is a kernel's register allocation.
type regAlloc struct {
	row  []int32 // per slot: its row, -1 for a slot no instruction names
	rows int     // rows in a warp's register file
}

// bitset is a set of register slots.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (i & 63) }

// or adds every member of c.
func (b bitset) or(c bitset) {
	for w, v := range c {
		b[w] |= v
	}
}

// each calls f for every member, ascending.
func (b bitset) each(f func(int32)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			f(int32(w<<6 + bits.TrailingZeros64(word)))
		}
	}
}

// allocRegs allocates k's register slots onto rows. issue is k's issue
// table still in slots (issueTable): its Src and Dst rows are the uses
// and definitions.
func allocRegs(k *ptx.Kernel, issue IssueTable) regAlloc {
	ra := regAlloc{row: make([]int32, k.NumSlots)}
	cfg, err := ptx.BuildCFG(k)
	if err != nil {
		// an empty body or a branch out of range, both of which ptx.Parse
		// refuses: a row per slot
		for s := range ra.row {
			ra.row[s] = int32(s)
		}
		ra.rows = k.NumSlots
		return ra
	}
	nw := (k.NumSlots + 63) / 64
	succs := warpSuccs(k, cfg)
	in := liveIn(k, issue, cfg, succs)

	// Interference, walking each block backward from its live-out set:
	// each destination against everything live into or out of its
	// instruction and against the instruction's other destinations.
	adj := make(bitset, k.NumSlots*nw)
	nbrs := func(s int32) bitset { return adj[int(s)*nw : int(s+1)*nw] }
	live, around, kill := make(bitset, nw), make(bitset, nw), make(bitset, nw)
	for b, blk := range cfg.Blocks {
		clear(live)
		for _, s := range succs[b] {
			live.or(in[s])
		}
		for pc := blk.End - 1; pc >= blk.Start; pc-- {
			src, dst := issue.Src(pc), issue.Dst(pc)
			if len(dst) > 0 {
				copy(around, live) // live out of pc
				for _, s := range src {
					around.set(s)
				}
				for _, d := range dst {
					around.set(d)
				}
				for _, d := range dst {
					nbrs(d).or(around)
					around.each(func(s int32) { nbrs(s).set(d) })
				}
			}
			clear(kill)
			kills(&k.Instrs[pc], k.NumSlots, kill.set)
			for w, v := range kill {
				live[w] &^= v
			}
			for _, s := range src {
				live.set(s)
			}
		}
	}

	// Slots by first mention: the colouring order.
	touch := make(bitset, nw)
	order := make([]int32, 0, k.NumSlots)
	for _, s := range issue.rows { // PC by PC, sources before destinations
		if !touch.has(s) {
			touch.set(s)
			order = append(order, s)
		}
	}

	// Slots live at entry interfere with every other slot.
	in[0].each(func(u int32) {
		nbrs(u).or(touch)
		touch.each(func(s int32) { nbrs(s).set(u) })
	})

	// Greedy colouring in order of first mention: each slot takes the
	// lowest row none of its already coloured neighbours holds.
	for s := range ra.row {
		ra.row[s] = -1
	}
	taken := make([]bool, len(order)+1)
	var held []int32 // the rows set in taken
	for _, s := range order {
		nbrs(s).each(func(t int32) {
			if r := ra.row[t]; r >= 0 && t != s {
				taken[r] = true
				held = append(held, r)
			}
		})
		r := int32(0)
		for taken[r] {
			r++
		}
		ra.row[s] = r
		ra.rows = max(ra.rows, int(r)+1)
		for _, h := range held {
			taken[h] = false
		}
		held = held[:0]
	}
	return ra
}

// rename rewrites an issue table built in slots (issueTable) into rows.
func (ra *regAlloc) rename(issue IssueTable) {
	for i, s := range issue.rows {
		issue.rows[i] = ra.row[s]
	}
}

// liveIn returns the slots live into each block of cfg when block b can
// be followed by the blocks succs[b]: those some path from the block's
// first instruction reads before an instruction kills them. It is the
// backward dataflow in = gen ∪ (out − kill), out = ∪ in(succ), to a fixed
// point; the virtual exit block's set stays empty.
func liveIn(k *ptx.Kernel, issue IssueTable, cfg *ptx.CFG, succs [][]int) []bitset {
	nb, nw := len(cfg.Blocks), (k.NumSlots+63)/64
	sets := make(bitset, 3*nb*nw)
	set := func(i, b int) bitset { return sets[(i*nb+b)*nw : (i*nb+b+1)*nw] }
	in := make([]bitset, nb)
	for b, blk := range cfg.Blocks {
		in[b] = set(0, b)
		gen, kill := set(1, b), set(2, b) // upward-exposed uses, kills
		for pc := blk.Start; pc < blk.End; pc++ {
			for _, s := range issue.Src(pc) {
				if !kill.has(s) {
					gen.set(s)
				}
			}
			kills(&k.Instrs[pc], k.NumSlots, kill.set)
		}
	}
	out := make(bitset, nw)
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			clear(out)
			for _, s := range succs[b] {
				out.or(in[s])
			}
			gen, kill := set(1, b), set(2, b)
			for w := range out {
				v := gen[w] | out[w]&^kill[w]
				changed = changed || v != in[b][w]
				in[b][w] = v
			}
		}
	}
	return in
}

// warpSuccs returns the blocks that can follow each block of cfg in a
// warp's execution. A thread goes on to Block.Succs; a warp also goes
// where its SIMT stack sends it (stepBranch, popReconverged). A guarded
// bra that diverges runs its taken side up to its reconvergence PC
// (in.RPC, len(Instrs) when that is the kernel's end) first, and only
// then its fall-through side, so a block of the taken side that reaches
// the reconvergence PC may be followed by the fall-through block. A side
// is every block reachable from its first one without entering the
// reconvergence block: on every path from a branch inside it, that
// branch's own reconvergence PC comes no later than the enclosing one
// (both post-dominate it, and post-dominators are ordered), so a nested
// side stays inside. No lane ends inside a side that reconverges before
// the kernel's end, or the reconvergence PC would not post-dominate the
// branch; the stack reaches the fall-through only by popping there.
func warpSuccs(k *ptx.Kernel, cfg *ptx.CFG) [][]int {
	nb := len(cfg.Blocks)
	exit := nb - 1
	succs := make([][]int, nb)
	for b, blk := range cfg.Blocks {
		succs[b] = slices.Clip(blk.Succs) // an append copies
	}
	seen := make([]int, nb) // the side that last reached each block, +1
	var stack []int
	for bi, blk := range cfg.Blocks[:exit] {
		in := &k.Instrs[blk.End-1]
		fall := cfg.BlockOf(blk.End)
		if in.Op != ptx.OpBra || in.PredReg < 0 || fall == exit {
			continue
		}
		rpc, first := cfg.BlockOf(int(in.RPC)), cfg.BlockOf(int(in.Target))
		if first == rpc {
			continue
		}
		seen[first] = bi + 1
		for stack = append(stack[:0], first); len(stack) > 0; {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range cfg.Blocks[b].Succs {
				switch {
				case s == rpc:
					if !slices.Contains(succs[b], fall) {
						succs[b] = append(succs[b], fall)
					}
				case s != exit && seen[s] != bi+1:
					seen[s] = bi + 1
					stack = append(stack, s)
				}
			}
		}
	}
	return succs
}

// kills calls f with each slot below numSlots that in overwrites in every
// lane it executes for: the destinations the decoder lowers into
// instr.dst, when in is unguarded. An instruction the decoder rejects
// ends the grid wherever an unguarded one executes, so what it claims to
// kill never matters.
func kills(in *ptx.Instr, numSlots int, f func(int32)) {
	dst := in.Dst()
	if in.PredReg >= 0 || len(dst) == 0 {
		return
	}
	elems := dst[:1]
	switch {
	case in.Op == ptx.OpLd || in.Op == ptx.OpTex:
		if dst[0].Kind == ptx.OperandVec {
			elems = in.Elems(&dst[0])
			if in.Op == ptx.OpTex && len(elems) > 4 {
				elems = elems[:4]
			}
		}
	case in.Op == ptx.OpAtom || int(in.Op) < ptx.OpLimit && aluSources[in.Op] > 0:
	default:
		return
	}
	for _, o := range elems {
		if o.Kind == ptx.OperandReg && o.Reg >= 0 && int(o.Reg) < numSlots {
			f(o.Reg)
		}
	}
}
