package main

// Layer probes: fixed-input microbenchmarks that call leaf layers
// through their public entry points only (the partition drain loop is
// unexported and stays out). Every probe fixes its input, warms once and
// reports the median over probeBatches timed batches; the whole set
// takes a few seconds, so it rides along with every traced run.

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/cudart"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/multigpu"
	"repro/internal/nvlink"
	"repro/internal/ptx"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/torch"
)

//go:embed ptx/probes.ptx
var probesPTX string

const probeBatches = 21

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// prober collects probe results and the first failure.
type prober struct {
	v   map[string]float64
	err error
}

// measure warms the batch once, times probeBatches more, and stores
// median nanoseconds per operation x unit under name (unit 1e-3 reports
// microseconds). Each batch does ops operations.
func (p *prober) measure(name string, ops, unit float64, batch func() error) {
	if p.err != nil {
		return
	}
	per := make([]float64, 0, probeBatches)
	for i := 0; i <= probeBatches; i++ {
		t0 := time.Now()
		err := batch()
		d := time.Since(t0)
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		if i > 0 {
			per = append(per, float64(d)/ops)
		}
	}
	p.v[name] = median(per) * unit
}

// runProbes fills the probe-backed per-layer metrics.
func runProbes(v map[string]float64) error {
	p := &prober{v: v}
	for _, f := range []func(*prober) error{
		probeExec, probeMemo, probeTiming, probeDevice, probeCacheDRAM, probeParsers, probeCollectives,
	} {
		if err := f(p); err != nil {
			return err
		}
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// probeExec prices the interpreter by op class: each probe kernel is a
// counted loop dominated by one class, run through Machine.RunGrid.
func probeExec(p *prober) error {
	const ctas, threads, iters = 4, 128, 64
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(probesPTX)
	if err != nil {
		return err
	}
	buf, err := ctx.Malloc(4 * ctas * threads)
	if err != nil {
		return err
	}
	ctx.Memset(buf, 0, 4*ctas*threads)
	params := cudart.NewParams().Ptr(buf).U32(iters).Bytes()
	for _, class := range []string{"alu_f32", "alu_s32", "cvt_setp", "ld_global", "st_global", "ld_shared", "atom_global", "bra_div", "bar_sync"} {
		k, ok := mod.Kernels["probe_"+class]
		if !ok {
			return fmt.Errorf("probes.ptx has no kernel probe_%s", class)
		}
		g, err := ctx.M.NewGrid(k, exec.Dim3{X: ctas}, exec.Dim3{X: threads}, params, 0)
		if err != nil {
			return err
		}
		before := ctx.M.Coverage().Total()
		if err := ctx.M.RunGrid(g); err != nil {
			return fmt.Errorf("probe_%s: %w", class, err)
		}
		instrs := ctx.M.Coverage().Total() - before
		p.measure("exec.step_ns."+class, float64(instrs), 1, func() error { return ctx.M.RunGrid(g) })
	}
	return nil
}

// probeMemo prices replay's functional memo on a residual_add grid:
// capture (run + record), validate the read-set, apply the write-set.
func probeMemo(p *prober) error {
	const n = 16384 // floats per operand: reads 128 KiB, writes 64 KiB
	dev, err := torch.NewDevice(exec.BugSet{})
	if err != nil {
		return err
	}
	_, k, err := dev.Ctx.LookupKernel("residual_add")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	var ptrs [3]uint64
	for i := range ptrs {
		t, err := dev.NewTensor(n)
		if err != nil {
			return err
		}
		t.RandInit(rng, 1)
		ptrs[i] = t.Ptr
	}
	params := cudart.NewParams().Ptr(ptrs[0]).Ptr(ptrs[1]).Ptr(ptrs[2]).U32(n).Bytes()
	m := dev.Ctx.M
	g, err := m.NewGrid(k, exec.Dim3{X: n / 256}, exec.Dim3{X: 256}, params, 0)
	if err != nil {
		return err
	}
	var memo *exec.GridMemo
	const readKB, writeKB = 2 * 4 * n / 1024.0, 4 * n / 1024.0
	p.measure("exec.memo_capture_us_per_kb", readKB+writeKB, 1e-3, func() error {
		var err error
		if memo, err = m.CaptureGrid(g); err == nil && memo == nil {
			err = fmt.Errorf("residual_add capture returned no memo")
		}
		return err
	})
	p.measure("exec.memo_match_us_per_kb", readKB, 1e-3, func() error {
		if !memo.Matches(m) {
			return fmt.Errorf("residual_add memo stopped matching unchanged memory")
		}
		return nil
	})
	p.measure("exec.memo_apply_us_per_kb", writeKB, 1e-3, func() error { memo.Apply(m); return nil })
	return nil
}

// probeTiming prices the engine's per-launch fixed cost (an empty 1-CTA
// 1-warp kernel through RunGrid) and the worker pool's barrier.
func probeTiming(p *prober) error {
	const launches = 10
	ctx := cudart.NewContext(exec.BugSet{})
	mod, err := ctx.RegisterModule(probesPTX)
	if err != nil {
		return err
	}
	eng, err := timing.New(timing.GTX1050())
	if err != nil {
		return err
	}
	defer eng.Close()
	params := cudart.NewParams().Ptr(0).U32(0).Bytes()
	g, err := ctx.M.NewGrid(mod.Kernels["empty"], exec.Dim3{X: 1}, exec.Dim3{X: exec.WarpSize}, params, 0)
	if err != nil {
		return err
	}
	p.measure("timing.launch_us_empty", launches, 1e-3, func() error {
		for i := 0; i < launches; i++ {
			if _, err := eng.RunGrid(g); err != nil {
				return err
			}
		}
		return nil
	})
	for _, j := range []int{1, 2} {
		const rounds = 1000
		pool := timing.NewPool(j)
		p.measure(fmt.Sprintf("timing.pool_barrier_ns.j%d", j), rounds, 1, func() error {
			for i := 0; i < rounds; i++ {
				pool.Run(2, func(int) {})
			}
			return nil
		})
		pool.Close()
	}
	return nil
}

// probeDevice prices device.Memory per-lane accesses (4-byte sweep over
// 1 MiB), bulk copies (1 MiB) and the allocator with 1k live spans.
func probeDevice(p *prober) error {
	const size = 1 << 20
	base := uint64(device.GlobalBase)
	mem := device.NewMemory()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	mem.Write(base, buf)
	p.measure("device.load_ns", size/4, 1, func() error {
		for off := uint64(0); off < size; off += 4 {
			sink += mem.Load(base+off, 4)
		}
		return nil
	})
	p.measure("device.store_ns", size/4, 1, func() error {
		for off := uint64(0); off < size; off += 4 {
			mem.Store(base+off, off, 4)
		}
		return nil
	})
	const copies = 4
	p.measure("device.read_mb_per_s", copies, 1, func() error {
		for i := 0; i < copies; i++ {
			mem.Read(base, buf)
		}
		return nil
	})
	p.measure("device.write_mb_per_s", copies, 1, func() error {
		for i := 0; i < copies; i++ {
			mem.Write(base, buf)
		}
		return nil
	})
	for _, name := range []string{"device.read_mb_per_s", "device.write_mb_per_s"} {
		if ns := p.v[name]; ns > 0 {
			p.v[name] = 1e9 / ns // ns per 1 MiB copy -> MiB per second
		}
	}

	const live, pairs = 1000, 1000
	alloc := device.NewAllocator()
	for i := 0; i < live; i++ {
		if _, err := alloc.Alloc(512); err != nil {
			return err
		}
	}
	p.measure("device.alloc_free_ns", pairs, 1, func() error {
		for i := 0; i < pairs; i++ {
			addr, err := alloc.Alloc(4096)
			if err == nil {
				err = alloc.Free(addr)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	return nil
}

// probeCacheDRAM prices one L2 lookup (a fixed pseudo-random stream over
// 4x the slice's capacity, misses filled) and DRAM scheduling of
// 64-request batches, streaming and camped on one bank.
func probeCacheDRAM(p *prober) error {
	cfg := timing.GTX1050()
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return err
	}
	const accesses = 20000
	addrs := make([]uint64, accesses)
	x := uint64(12345)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x >> 33) % uint64(4*cfg.L2.SizeBytes) &^ 3
	}
	p.measure("cache.access_ns", accesses, 1, func() error {
		for _, a := range addrs {
			if res, _ := l2.Access(a, false); res == cache.Miss {
				l2.Fill(a, false)
			}
		}
		return nil
	})

	const batchLen, calls = 64, 100
	for _, pat := range []struct {
		name   string
		stride uint64
	}{
		{"stream", 128}, // consecutive sectors: row hits, banks interleave
		{"camped", uint64(cfg.DRAM.RowBytes * cfg.DRAM.NumBanks)}, // same bank, a new row each time
	} {
		ch := dram.NewChannel(cfg.DRAM, uint64(cfg.SampleInterval))
		reqs := make([]*dram.Req, batchLen)
		for i := range reqs {
			reqs[i] = &dram.Req{}
		}
		var now, next uint64
		p.measure("dram.service_ns_per_req."+pat.name, batchLen*calls, 1, func() error {
			for c := 0; c < calls; c++ {
				for _, r := range reqs {
					*r = dram.Req{Arrive: now, Addr: next}
					next += pat.stride
				}
				ch.ServiceBatch(reqs)
				now = reqs[batchLen-1].Done
			}
			return nil
		})
	}
	return nil
}

// probeParsers prices ptx.Parse over the ten library modules (what every
// torch.NewDevice pays) and serve.ParseTrace over the diurnal trace.
func probeParsers(p *prober) error {
	srcs := kernels.AllModules()
	instrs := 0
	for _, src := range srcs {
		m, err := ptx.Parse(src)
		if err != nil {
			return err
		}
		for _, k := range m.Kernels {
			instrs += len(k.Instrs)
		}
	}
	p.v["ptx.instrs"] = float64(instrs)
	p.measure("ptx.parse_us_per_kinstr", float64(instrs)/1e3, 1e-3, func() error {
		for _, src := range srcs {
			m, err := ptx.Parse(src)
			if err != nil {
				return err
			}
			sink += uint64(len(m.Kernels))
		}
		return nil
	})

	const rounds = 50
	tr, err := serve.ParseTrace(bytes.NewReader(diurnalTrace))
	if err != nil {
		return err
	}
	p.measure("serve.parse_us_per_req", float64(rounds*len(tr.Requests)), 1e-3, func() error {
		for i := 0; i < rounds; i++ {
			t, err := serve.ParseTrace(bytes.NewReader(diurnalTrace))
			if err != nil {
				return err
			}
			sink += uint64(len(t.Requests))
		}
		return nil
	})
	return nil
}

// probeCollectives prices the coordinator's all-reduce of model-sized
// gradients across 2 devices and the fabric's ring schedule on 4.
func probeCollectives(p *prober) error {
	node, err := multigpu.NewNode(multigpu.Config{Devices: 2, Workers: 1})
	if err != nil {
		return err
	}
	defer node.Close()
	grads := make([][]*torch.Tensor, node.World())
	gradBytes := 0
	for r, dev := range node.Devs {
		enc, err := torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(7)), sampleModel())
		if err != nil {
			return err
		}
		tr, err := torch.NewTransformerTrainer(dev, enc, 0.05)
		if err != nil {
			return err
		}
		for _, param := range tr.Opt.Params {
			grads[r] = append(grads[r], param.Grad)
			if r == 0 {
				gradBytes += 4 * param.Grad.Count()
			}
		}
	}
	p.measure("multigpu.allreduce_us", 1, 1e-3, func() error { return node.AllReduce(grads) })

	const rounds = 1000
	fab, err := nvlink.New(4, nvlink.Config{})
	if err != nil {
		return err
	}
	ready := make([]uint64, 4)
	p.measure("nvlink.ring_allreduce_ns", rounds, 1, func() error {
		for i := 0; i < rounds; i++ {
			end := fab.RingAllReduce(gradBytes, ready)
			for r := range ready {
				ready[r] = end
			}
		}
		return nil
	})
	return nil
}
