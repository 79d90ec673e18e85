package main

// The per-layer budget (--trace 1). Three sources, all outside the
// simulator's packages:
//
//   - the traced run: spanRunner spans around every runner call, so
//     wall = host code above the boundary + time inside the engine;
//   - the functional twin: the same launch stream through
//     functionalRunner, which prices the interpreter alone — engine time
//     minus that is the timing model;
//   - the probes (probes.go): fixed-input calls into leaf layers.
//
// serve_diurnal and dp_train_2dev run inside their drivers, where no
// runner can be swapped in: their spans and twin read 0 and their
// numbers come from the drivers' result counters, the workers=1 twin
// and the probes.

import (
	"fmt"
	"time"
)

// runTraced is a --trace 1 run: untraced and traced passes in turn (the
// pairs give the tracer's overhead with the machine's drift cancelled),
// then the functional twin, the workers=1 twin and the probes.
func runTraced(rc runConfig) (*record, error) {
	w := rc.w
	plain, traced := &series{}, &series{}
	var slow []float64 // the reference clock, once per pair
	for t0 := time.Now(); traced.last == nil || time.Since(t0) < rc.budget*6/10; {
		slow = append(slow, hostSlowdown())
		if err := plain.pass(rc, mode{}); err != nil {
			return nil, err
		}
		plain.last = nil // only its times and hash are needed
		m := mode{}
		if !w.driver {
			m.tr = newTracer(w.name)
		}
		if err := traced.pass(rc, m); err != nil {
			return nil, err
		}
	}
	var c checks
	sameDigest(append(plain.digests, traced.digests...), &c) // tracing must not perturb the model
	last := traced.last
	last.inst.verify(last.o, &c)
	o := last.o

	overhead := make([]float64, len(plain.wallS))
	for i := range overhead {
		overhead[i] = 100 * (traced.wallS[i] - plain.wallS[i]) / plain.wallS[i]
	}
	plainWall, tracedWall := median(plain.wallS), median(traced.wallS)
	v := map[string]float64{}
	for k, x := range o.extra {
		v[k] = x
	}
	modelled(v, o)
	v["host.wall_s"], v["host.cpu_s"] = plainWall, median(plain.cpuS)
	v["host.ref_slowdown"] = median(slow)

	if !w.driver {
		before, after := &last.memBefore, &last.memAfter
		if rc.traceOut != "" {
			if err := last.tr.writeFile(rc.traceOut); err != nil {
				return nil, err
			}
		}
		v["trace.overhead_pct"] = median(overhead)
		v["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		v["runtime.mallocs_per_kinstr"] = float64(after.Mallocs-before.Mallocs) / (float64(o.warpInstrs) / 1e3)
		v["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		v["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		if err := hostBudget(rc, v, last, &c); err != nil {
			return nil, err
		}
	}
	if it := v["serve.iterations"]; it > 0 {
		v["serve.ms_per_iteration"] = tracedWall * 1e3 / it
	}
	if w.parallel {
		j1, err := onePass(w, rc.seed, rc.sc, mode{workers: 1})
		if err != nil {
			return nil, fmt.Errorf("workers=1 twin: %w", err)
		}
		c.expect(j1.o.digest == o.digest, "dp_train_2dev: workers=1 twin's statistics hash %s differs from %s", j1.o.digest, o.digest)
		v["multigpu.j1_wall_s"] = j1.wallS
		v["multigpu.parallel_speedup"] = j1.wallS / tracedWall
	}
	if err := runProbes(v); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return newRecord(c, perLayer, v), nil
}

// modelled fills the exact counts of the modelled machine.
func modelled(v map[string]float64, o *outcome) {
	st := o.stats
	v["cudart.launches"] = float64(o.launches)
	v["timing.sim_cycles"] = float64(o.cycles)
	v["timing.warp_instrs"] = float64(o.warpInstrs)
	v["timing.ipc"] = float64(o.warpInstrs) / float64(o.cycles)
	v["timing.fast_forwarded_cycles"] = float64(st.FastForwardedCycles)
	v["timing.idle_slot_cycles"] = float64(st.IdleSlotCycles)
	v["timing.ingress_stall_cycles"] = float64(st.IngressStallCycles)
	v["timing.avg_seg_latency_cycles"] = st.AvgSegmentLatency()
	v["timing.replay_hits"] = float64(st.ReplayHits)
	v["timing.replay_misses"] = float64(st.ReplayMisses)
	v["timing.replay_memo_applied"] = float64(st.ReplayMemoApplied)
	v["cache.l2_accesses"] = float64(st.L2Accesses)
	v["cache.l2_writebacks"] = float64(st.L2Writebacks)
	v["dram.accesses"] = float64(st.DRAMAccesses)
	if st.L2Accesses > 0 {
		v["cache.l2_hit_rate"] = float64(st.L2Hits) / float64(st.L2Accesses)
	}
	if st.DRAMAccesses > 0 {
		v["dram.row_hit_rate"] = float64(st.DRAMRowHits) / float64(st.DRAMAccesses)
	}
	v["device.touched_mb"] = float64(o.touchedBytes) / (1 << 20)
}

// hostBudget splits the traced pass's wall clock: torch/cudnn/cudart host
// code (self time outside runner calls), engine time (inside them), and —
// against the functional twin — interpreter versus timing model.
func hostBudget(rc runConfig, v map[string]float64, traced *passResult, c *checks) error {
	tr := traced.tr
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	self := tr.selfTimes()
	submit := self[spanSubmitKernel] + self[spanSubmitCopy]
	drain := self[spanDrainAll] + self[spanRunKernel]
	engine := submit + drain
	wallMS := traced.wallS * 1e3
	o := traced.o
	v["torch.host_ms"] = wallMS - ms(engine)
	v["cudart.host_us_per_launch"] = 1e3 * v["torch.host_ms"] / float64(o.launches)
	v["timing.engine_ms"] = ms(engine)
	v["timing.drain_ms"] = ms(drain)
	if n := tr.count(spanSubmitKernel); n > 0 {
		v["timing.submit_us_per_launch"] = 1e3 * ms(self[spanSubmitKernel]) / float64(n)
	}
	v["timing.ns_per_warp_instr"] = 1e6 * ms(engine) / float64(o.warpInstrs)

	// Functional twin, over the iterations that interpret kernels.
	twinMode := mode{functional: true, tr: newTracer(rc.w.name), iters: rc.w.interpreted}
	wantInstrs := o.warpInstrs
	if n := min(rc.w.interpreted, o.iters); n > 0 {
		wantInstrs = o.warpInstrs * uint64(n) / uint64(o.iters)
	}
	twin, err := onePass(rc.w, rc.seed, rc.sc, twinMode)
	if err != nil {
		return fmt.Errorf("functional twin: %w", err)
	}
	c.expect(twin.o.warpInstrs == wantInstrs, "functional twin interpreted %d warp instructions, the detailed run committed %d", twin.o.warpInstrs, wantInstrs)
	functional := twinMode.tr.selfTimes()[spanFunctional]
	v["exec.functional_ms"] = ms(functional)
	v["exec.share"] = ms(functional) / wallMS
	v["exec.ns_per_warp_instr"] = 1e6 * ms(functional) / float64(twin.o.warpInstrs)
	v["timing.model_ms"] = ms(engine - functional)
	v["timing.model_share"] = ms(engine-functional) / wallMS
	v["timing.ns_per_sim_cycle"] = 1e6 * ms(engine-functional) / float64(o.cycles)

	// Replay phases: iteration 0 simulates in detail, iteration 1 captures
	// memos (or, in training, re-interprets), the rest are warm.
	if it := tr.iterationTimes(); rc.w.hybrid && len(it) > 2 {
		warm := make([]float64, len(it)-2)
		for i, d := range it[2:] {
			warm[i] = d.Seconds() * 1e6
		}
		v["timing.replay_cold_iter_ms"] = ms(it[0])
		v["timing.replay_capture_iter_ms"] = ms(it[1])
		v["timing.replay_warm_iter_us"] = median(warm)
		tail, which := tailPercentile(warm)
		v["timing.replay_warm_iter_us.tail"] = tail
		fmt.Fprintf(stderr, "%s: %d warm iterations, tail = %s\n", rc.w.name, len(warm), which)
	}
	return nil
}
