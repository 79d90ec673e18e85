package main

// Pinned modelled numbers for the default seed. A host-only change must
// leave every one of them where it is: sim_match_pct reports how far the
// run's total cycles are from the pin (100 = identical), and -repin —
// the only writer of pinned.json — prints what moved.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

//go:embed pinned.json
var pinnedJSON []byte

// pin is one workload's modelled outcome at the pinned seed and scale.
type pin struct {
	Params         string `json:"params"` // the iteration counts the pin was taken at
	Seed           int64  `json:"seed"`
	Cycles         uint64 `json:"cycles"`
	Hash           string `json:"stats_hash"`
	DetailedCycles uint64 `json:"detailed_twin_cycles,omitempty"` // hybrid workloads
}

type pinTable map[string]pin

func shippedPins() pinTable {
	t := pinTable{}
	if err := json.Unmarshal(pinnedJSON, &t); err != nil {
		fmt.Fprintln(stderr, "gpubench: pinned.json:", err)
	}
	return t
}

// match returns 100 - |cycles - pinned| / pinned x 100. Seeds other than
// the pinned one are compared against the same pin: the seed changes
// values, not shapes, so their cycles sit within a percent of it. A run
// at another scale has no pin and reports 100.
func (t pinTable) match(w *workload, sc scale, o *outcome) float64 {
	p, ok := t[w.name]
	if !ok || p.Params != w.params(sc) || p.Cycles == 0 {
		fmt.Fprintf(stderr, "%s: no pin for %q; sim_match_pct reads 100\n", w.name, w.params(sc))
		return 100
	}
	return 100 - 100*math.Abs(float64(o.cycles)-float64(p.Cycles))/float64(p.Cycles)
}

// repinAll measures every workload once at the given seed and rewrites
// the pin file, printing a diff of what moved.
func repinAll(path string, seed int64, sc scale) error {
	old := shippedPins()
	fresh := pinTable{}
	for i := range workloads {
		w := &workloads[i]
		p, err := onePass(w, seed, sc, mode{})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		np := pin{Params: w.params(sc), Seed: seed, Cycles: p.o.cycles, Hash: p.o.digest}
		if w.hybrid {
			twin, err := onePass(w, seed, sc, mode{detailed: true, iters: twinIters})
			if err != nil {
				return fmt.Errorf("%s detailed twin: %w", w.name, err)
			}
			np.DetailedCycles = twin.o.cycles
		}
		fresh[w.name] = np
		switch op, had := old[w.name]; {
		case !had:
			fmt.Printf("%-16s new pin: %d cycles, hash %s\n", w.name, np.Cycles, np.Hash)
		case op == np:
			fmt.Printf("%-16s unchanged\n", w.name)
		default:
			fmt.Printf("%-16s MOVED: params %q -> %q, seed %d -> %d, cycles %d -> %d, hash %s -> %s, detailed twin %d -> %d\n",
				w.name, op.Params, np.Params, op.Seed, np.Seed, op.Cycles, np.Cycles, op.Hash, np.Hash, op.DetailedCycles, np.DetailedCycles)
		}
	}
	data, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
