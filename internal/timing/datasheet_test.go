package timing_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/cudart"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/timing"
)

// chasePTX is the pointer chase: one thread follows a chain of 64-bit
// global pointers for n dependent loads, then stores where it ended.
func chasePTX() string {
	b := kernels.NewBuilder("chase")
	start, n, out := b.PtrParam("start"), b.U32Param("n"), b.PtrParam("out")
	p := b.LoadPtr(start)
	limit := b.LoadU32(n)
	i, more := b.R(kernels.B32), b.R(kernels.Pred)
	b.I("mov.u32 %s, 0;", i)
	b.L("CHASE")
	b.I("ld.global.u64 %s, [%s];", p, p)
	b.I("add.u32 %s, %s, 1;", i, i)
	b.I("setp.lt.u32 %s, %s, %s;", more, i, limit)
	b.I("@%s bra CHASE;", more)
	o := b.LoadPtr(out)
	b.I("st.global.u64 [%s], %s;", o, p)
	return kernels.Module(nil, b.Build())
}

// chase runs the chase on a fresh cfg machine: a chain of ws/stride
// nodes, stride bytes apart, visited in address order or in a random
// cyclic order, followed for laps laps. It returns the kernel's record.
func chase(t *testing.T, cfg timing.Config, ws, stride int, random bool, laps int) cudart.KernelStats {
	t.Helper()
	ctx := cudart.NewContext(exec.BugSet{})
	if _, err := ctx.RegisterModule(chasePTX()); err != nil {
		t.Fatal(err)
	}
	eng, err := timing.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	nodes := ws / stride
	base, _ := ctx.Malloc(uint64(ws))
	out, _ := ctx.Malloc(8)
	order := make([]int, nodes)
	for i := range order {
		order[i] = i
	}
	if random {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(nodes-1, func(i, j int) { order[i+1], order[j+1] = order[j+1], order[i+1] })
	}
	img := make([]byte, ws)
	for i, at := range order {
		next := base + uint64(order[(i+1)%nodes]*stride)
		binary.LittleEndian.PutUint64(img[at*stride:], next)
	}
	ctx.MemcpyHtoD(base, img)
	_, k, err := ctx.LookupKernel("chase")
	if err != nil {
		t.Fatal(err)
	}
	params := cudart.NewParams().Ptr(base).U32(uint32(nodes * laps)).Ptr(out)
	g, err := ctx.M.NewGrid(k, exec.Dim3{X: 1}, exec.Dim3{X: 1}, params.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st, err := tk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPointerChaseLatencies reads the load latency of each level of the
// memory hierarchy back out of the model (ROADMAP 23(a)) and holds it to
// a formula over Config: the cycles of a second lap of the chase, timed
// as the difference between a two-lap and a one-lap run, after the first
// lap has warmed the caches.
func TestPointerChaseLatencies(t *testing.T) {
	const stride = 128
	for _, c := range []struct {
		name string
		cfg  timing.Config
		ws   int
		want func(cfg timing.Config) int
	}{
		// fits the L1
		{"L1 hit", timing.GTX1050(), 16 << 10, l1Hit},
		// misses the L1 and fits the L2 (on the GTX 1050 in no more than
		// 256 KiB: ROADMAP 19(c))
		{"L2 hit GTX1050", timing.GTX1050(), 128 << 10, l2Hit},
		{"L2 hit GTX1080Ti", timing.GTX1080Ti(), 1 << 20, l2Hit},
	} {
		t.Run(c.name, func(t *testing.T) { secondLap(t, c.cfg, c.ws, stride, c.want(c.cfg)) })
	}

	// Past the L2 (4 MiB against the GTX 1050's 1 MiB), in random order:
	// every load of the second lap reaches DRAM, and all but the few that
	// find their row open pay a row miss over an L2 hit.
	t.Run("DRAM GTX1050", func(t *testing.T) {
		cfg, ws := timing.GTX1050(), 4<<20
		nodes := uint64(ws / stride)
		one, two := chase(t, cfg, ws, stride, true, 1), chase(t, cfg, ws, stride, true, 2)
		if got := two.DRAMAccesses - one.DRAMAccesses; got != nodes {
			t.Fatalf("second lap: %d DRAM accesses, want one per load (%d)", got, nodes)
		}
		hits := two.DRAMRowHits - one.DRAMRowHits
		if hits > nodes/20 {
			t.Fatalf("second lap: %d of %d loads found their DRAM row open; the chase is not random", hits, nodes)
		}
		d := cfg.DRAM
		miss, hit := dramMiss(cfg), l2Hit(cfg)+d.TCL+d.TBurst
		lap := two.Cycles - one.Cycles
		t.Logf("%d KiB: %.2f cycles/load; %d row misses at %d, %d row hits at %d", ws>>10,
			float64(lap)/float64(nodes), nodes-hits, miss, hits, hit)
		if want := (nodes-hits)*uint64(miss) + hits*uint64(hit); lap != want {
			t.Errorf("second lap %d cycles, want %d", lap, want)
		}
	})
}

// perSet is the bytes of one more line in every set of c: also the
// stride at which lines share one set.
func perSet(c cache.Config) int { return c.SizeBytes / c.Assoc }

// TestPointerChaseCapacities reads the cache capacities back out of the
// model (ROADMAP 23(a)): a sequential chase of exactly a cache's capacity
// still hits it on the second lap, and one more line per set (LRU, so
// every set then cycles through one line more than its ways) makes every
// second-lap load miss it.
func TestPointerChaseCapacities(t *testing.T) {
	for _, p := range []struct {
		name string
		cfg  timing.Config
	}{{"GTX1050", timing.GTX1050()}, {"GTX1080Ti", timing.GTX1080Ti()}} {
		l1, stride := p.cfg.L1, p.cfg.L1.LineBytes
		for _, c := range []struct {
			name string
			ws   int
			want func(cfg timing.Config) int
		}{
			{"L1 capacity", l1.SizeBytes, l1Hit},
			{"L1 capacity + a line per set", l1.SizeBytes + perSet(l1), l2Hit},
		} {
			t.Run(c.name+" "+p.name, func(t *testing.T) { secondLap(t, p.cfg, c.ws, stride, c.want(p.cfg)) })
		}
	}

	// The L2 is NumPartitions slices interleaved by line. On the GTX 1050
	// a chase of its full capacity does not hit (ROADMAP 19(c)), so only
	// the GTX 1080 Ti has these rows.
	cfg := timing.GTX1080Ti()
	l2, stride := cfg.L2, cfg.L2.LineBytes
	t.Run("L2 capacity GTX1080Ti", func(t *testing.T) {
		secondLap(t, cfg, cfg.NumPartitions*l2.SizeBytes, stride, l2Hit(cfg))
	})
	t.Run("L2 capacity + a line per set GTX1080Ti", func(t *testing.T) {
		ws := cfg.NumPartitions * (l2.SizeBytes + perSet(l2))
		nodes := uint64(ws / stride)
		one, two := chase(t, cfg, ws, stride, false, 1), chase(t, cfg, ws, stride, false, 2)
		got := two.DRAMAccesses - one.DRAMAccesses
		t.Logf("%d KiB: %d DRAM accesses in the second lap of %d loads", ws>>10, got, nodes)
		if got != nodes {
			t.Errorf("second lap: %d DRAM accesses, want one per load (%d)", got, nodes)
		}
	})
}

// TestPointerChaseAssociativity reads the L1's associativity back out of
// the model (ROADMAP 23(a)): a chase of L1.Assoc lines that all fall in
// one set (a stride of L1.SizeBytes/L1.Assoc) hits the L1 on the second
// lap, and one more line in that set makes every second-lap load an L2
// hit.
func TestPointerChaseAssociativity(t *testing.T) {
	for _, p := range []struct {
		name string
		cfg  timing.Config
	}{{"GTX1050", timing.GTX1050()}, {"GTX1080Ti", timing.GTX1080Ti()}} {
		l1 := p.cfg.L1
		stride := perSet(l1)
		t.Run("L1 ways "+p.name, func(t *testing.T) { secondLap(t, p.cfg, l1.Assoc*stride, stride, l1Hit(p.cfg)) })
		t.Run("L1 ways + a line "+p.name, func(t *testing.T) { secondLap(t, p.cfg, (l1.Assoc+1)*stride, stride, l2Hit(p.cfg)) })
	}
}

// secondLap checks that the second lap of a sequential chase of ws bytes
// costs exactly want cycles per load: the difference between a two-lap
// and a one-lap run, after the first lap has warmed the caches.
func secondLap(t *testing.T, cfg timing.Config, ws, stride, want int) {
	t.Helper()
	lap := chase(t, cfg, ws, stride, false, 2).Cycles - chase(t, cfg, ws, stride, false, 1).Cycles
	got := float64(lap) / float64(ws/stride)
	t.Logf("%d KiB: %.2f cycles/load, formula %d", ws>>10, got, want)
	if got != float64(want) {
		t.Errorf("%.2f cycles per load, want %d", got, want)
	}
}

func l1Hit(cfg timing.Config) int { return cfg.L1HitLat }

// l2Hit is the L2 latency plus the network hop each way.
func l2Hit(cfg timing.Config) int { return cfg.L2Lat + 2*cfg.NoCLat }

// dramMiss is an L2 hit plus a DRAM row miss: precharge, activate, CAS
// and the burst, all counted in core cycles.
func dramMiss(cfg timing.Config) int {
	d := cfg.DRAM
	return l2Hit(cfg) + d.TRP + d.TRCD + d.TCL + d.TBurst
}
