package ptx

import "fmt"

// CFG is the control-flow graph of a kernel at basic-block granularity.
// It exists to compute the immediate post-dominator of every potentially
// divergent branch: GPGPU-Sim's SIMT reconvergence stack (and ours, in
// internal/exec) reconverges diverged warps at the IPDOM of the branch.
type CFG struct {
	Blocks []*Block
	// blockOf maps an instruction PC to its block index.
	blockOf []int
}

// Block is one basic block.
type Block struct {
	ID    int
	Start int // first instruction PC
	End   int // one past last instruction PC
	Succs []int
	Preds []int
	// IPDom is the block index of the immediate post-dominator
	// (exitBlockID for blocks that post-dominate straight to exit).
	IPDom int
}

const noBlock = -1

// BlockOf returns the index of the block holding instruction pc; a pc
// outside the kernel's instructions (len(Instrs) is where threads end)
// maps to the virtual exit block.
func (cfg *CFG) BlockOf(pc int) int {
	if pc < 0 || pc >= len(cfg.blockOf) {
		return len(cfg.Blocks) - 1
	}
	return cfg.blockOf[pc]
}

// BuildCFG constructs the CFG for a kernel. A virtual exit block with
// ID == len(Blocks)-1 collects ret/exit edges.
func BuildCFG(k *Kernel) (*CFG, error) {
	n := len(k.Instrs)
	if n == 0 {
		return nil, fmt.Errorf("empty kernel body")
	}
	leader := make([]bool, n)
	leader[0] = true
	for i := 0; i < n; i++ {
		in := &k.Instrs[i]
		switch in.Op {
		case OpBra:
			if in.Target < 0 || int(in.Target) >= n {
				return nil, fmt.Errorf("branch at pc %d targets %d (out of range)", i, in.Target)
			}
			leader[in.Target] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case OpRet, OpExit:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}
	cfg := &CFG{blockOf: make([]int, n)}
	for i := 0; i < n; i++ {
		if leader[i] {
			cfg.Blocks = append(cfg.Blocks, &Block{ID: len(cfg.Blocks), Start: i})
		}
		cfg.blockOf[i] = len(cfg.Blocks) - 1
	}
	for bi, b := range cfg.Blocks {
		if bi+1 < len(cfg.Blocks) {
			b.End = cfg.Blocks[bi+1].Start
		} else {
			b.End = n
		}
	}
	exit := &Block{ID: len(cfg.Blocks), Start: n, End: n}
	cfg.Blocks = append(cfg.Blocks, exit)

	addEdge := func(from, to int) {
		f := cfg.Blocks[from]
		for _, s := range f.Succs {
			if s == to {
				return
			}
		}
		f.Succs = append(f.Succs, to)
		cfg.Blocks[to].Preds = append(cfg.Blocks[to].Preds, from)
	}

	for _, b := range cfg.Blocks[:len(cfg.Blocks)-1] {
		last := &k.Instrs[b.End-1]
		switch last.Op {
		case OpBra:
			addEdge(b.ID, cfg.blockOf[last.Target])
			if last.PredReg >= 0 { // predicated branch falls through too
				if b.End < n {
					addEdge(b.ID, cfg.blockOf[b.End])
				} else {
					addEdge(b.ID, exit.ID)
				}
			}
		case OpRet, OpExit:
			addEdge(b.ID, exit.ID)
		default:
			// A predicated ret/exit mid-block cannot happen (they end
			// blocks); plain fallthrough:
			if b.End < n {
				addEdge(b.ID, cfg.blockOf[b.End])
			} else {
				addEdge(b.ID, exit.ID)
			}
		}
		// Predicated ret/exit: ret under a guard also falls through.
		if (last.Op == OpRet || last.Op == OpExit) && last.PredReg >= 0 && b.End < n {
			addEdge(b.ID, cfg.blockOf[b.End])
		}
	}
	return cfg, nil
}

// computePostDominators runs the iterative Cooper-Harvey-Kennedy algorithm
// on the reverse CFG. Every block must reach the exit block.
func (cfg *CFG) computePostDominators() error {
	nb := len(cfg.Blocks)
	exitID := nb - 1

	// Reverse post-order of the reverse graph = post-order from exit over
	// predecessor edges... we compute an ordering via DFS from exit
	// following Preds (i.e. RPO of reverse CFG).
	order := make([]int, 0, nb)
	seen := make([]bool, nb)
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, p := range cfg.Blocks[b].Preds {
			if !seen[p] {
				dfs(p)
			}
		}
		order = append(order, b)
	}
	dfs(exitID)
	for b := 0; b < nb; b++ {
		if !seen[b] {
			return fmt.Errorf("block %d (pc %d) cannot reach exit", b, cfg.Blocks[b].Start)
		}
	}
	// order is post-order of reverse graph; reverse it for RPO.
	rpo := make([]int, nb)
	pos := make([]int, nb)
	for i := range order {
		rpo[nb-1-i] = order[i]
	}
	for i, b := range rpo {
		pos[b] = i
	}

	ipdom := make([]int, nb)
	for i := range ipdom {
		ipdom[i] = noBlock
	}
	ipdom[exitID] = exitID

	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = ipdom[a]
			}
			for pos[b] > pos[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == exitID {
				continue
			}
			newIdom := noBlock
			for _, s := range cfg.Blocks[b].Succs {
				if ipdom[s] == noBlock && s != exitID {
					continue
				}
				if s == exitID || ipdom[s] != noBlock {
					if newIdom == noBlock {
						newIdom = s
					} else {
						newIdom = intersect(s, newIdom)
					}
				}
			}
			if newIdom != noBlock && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	for b := 0; b < nb; b++ {
		cfg.Blocks[b].IPDom = ipdom[b]
	}
	return nil
}

// AnalyzeReconvergence builds the CFG, computes post-dominators, and
// stamps every branch instruction with its reconvergence PC. A branch in
// block B reconverges at the first instruction of IPDOM(B); branches whose
// IPDOM is the virtual exit block reconverge at len(Instrs) (the sentinel
// "end of kernel" PC).
func AnalyzeReconvergence(k *Kernel) error {
	cfg, err := BuildCFG(k)
	if err != nil {
		return err
	}
	if err := cfg.computePostDominators(); err != nil {
		return err
	}
	for i := range k.Instrs {
		in := &k.Instrs[i]
		if in.Op != OpBra {
			continue
		}
		b := cfg.blockOf[i]
		ip := cfg.Blocks[b].IPDom
		in.RPC = int32(cfg.Blocks[ip].Start)
	}
	return nil
}
