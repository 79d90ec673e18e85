package main

// The benchmark's vocabulary: every workload and every metric it can
// emit, with unit, direction and (end to end) regression bound. Both
// BENCHMARK.json (-manifest) and the README table are checked against
// these tables, so a name exists in exactly one place.

import (
	"encoding/json"
	"os"
)

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before -compare (and the PR
// driver) calls it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the simulator sees, measured with
// tracing off. Host time is process CPU time (see cpuSeconds), which
// leaves out what the hypervisor steals, divided pass by pass by the
// machine's slowdown on the benchmark's reference computation
// (refclock.go), which takes out most of what noisy neighbours cost: raw
// CPU seconds of one pass wander by 10-30% between runs on the shared VMs
// this runs on, the normalised ones by 1-5%. The bound on the time
// metrics stays the widest the driver allows. The three *_pct accuracy
// metrics are stated as agreement (100 - error) so that they are never 0
// and a relative bound means something: 0.01 of hw_agree_pct is 0.88
// points of hardware error.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_cpu_s", "s", "lower", 0.25},
	{"warp_kinstr_per_s", "kinstr/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_match_pct", "%", "higher", 0.02},
	{"replay_agree_pct", "%", "higher", 0.03},
	{"hw_agree_pct", "%", "higher", 0.01},
}

// perLayer are the single-layer numbers of the traced run, its
// functional twin and the leaf probes; layer = internal/ module name.
var perLayer = []metricDef{
	// torch / cudnn / cudart: host code above the runner boundary
	{"torch.host_ms", "ms", "lower", 0},
	{"cudart.launches", "count", "lower", 0},
	{"cudart.host_us_per_launch", "us", "lower", 0},

	// timing: host time inside runner calls, split against the twin
	{"timing.engine_ms", "ms", "lower", 0},
	{"timing.submit_us_per_launch", "us", "lower", 0},
	{"timing.drain_ms", "ms", "lower", 0},
	{"timing.model_ms", "ms", "lower", 0},
	{"timing.model_share", "ratio", "lower", 0},
	{"timing.ns_per_sim_cycle", "ns", "lower", 0},
	{"timing.ns_per_warp_instr", "ns", "lower", 0},
	// timing: exact modelled counts (repeat bit for bit on one seed)
	{"timing.sim_cycles", "count", "lower", 0},
	{"timing.warp_instrs", "count", "lower", 0},
	{"timing.ipc", "ratio", "higher", 0},
	{"timing.fast_forwarded_cycles", "count", "higher", 0},
	{"timing.idle_slot_cycles", "count", "lower", 0},
	{"timing.ingress_stall_cycles", "count", "lower", 0},
	{"timing.avg_seg_latency_cycles", "count", "lower", 0},
	{"timing.replay_hits", "count", "higher", 0},
	{"timing.replay_misses", "count", "lower", 0},
	{"timing.replay_memo_applied", "count", "higher", 0},
	{"timing.replay_coverage", "ratio", "higher", 0},
	// timing: replay phases, host time per iteration
	{"timing.replay_cold_iter_ms", "ms", "lower", 0},
	{"timing.replay_capture_iter_ms", "ms", "lower", 0},
	{"timing.replay_warm_iter_us", "us", "lower", 0},
	{"timing.replay_warm_iter_us.tail", "us", "lower", 0},
	// timing: probes
	{"timing.launch_us_empty", "us", "lower", 0},
	{"timing.pool_barrier_ns.j1", "ns", "lower", 0},
	{"timing.pool_barrier_ns.j2", "ns", "lower", 0},

	// exec: the interpreter alone (functional twin), then probes
	{"exec.functional_ms", "ms", "lower", 0},
	{"exec.share", "ratio", "lower", 0},
	{"exec.ns_per_warp_instr", "ns", "lower", 0},
	{"exec.step_ns.alu_f32", "ns", "lower", 0},
	{"exec.step_ns.alu_s32", "ns", "lower", 0},
	{"exec.step_ns.cvt_setp", "ns", "lower", 0},
	{"exec.step_ns.ld_global", "ns", "lower", 0},
	{"exec.step_ns.st_global", "ns", "lower", 0},
	{"exec.step_ns.ld_shared", "ns", "lower", 0},
	{"exec.step_ns.atom_global", "ns", "lower", 0},
	{"exec.step_ns.bra_div", "ns", "lower", 0},
	{"exec.step_ns.bar_sync", "ns", "lower", 0},
	{"exec.memo_capture_us_per_kb", "us/KB", "lower", 0},
	{"exec.memo_match_us_per_kb", "us/KB", "lower", 0},
	{"exec.memo_apply_us_per_kb", "us/KB", "lower", 0},

	// device: probes, plus the run's resident footprint
	{"device.load_ns", "ns", "lower", 0},
	{"device.store_ns", "ns", "lower", 0},
	{"device.read_mb_per_s", "MB/s", "higher", 0},
	{"device.write_mb_per_s", "MB/s", "higher", 0},
	{"device.alloc_free_ns", "ns", "lower", 0},
	{"device.touched_mb", "MB", "lower", 0},

	// cache / dram: modelled counts, then probes
	{"cache.l2_accesses", "count", "lower", 0},
	{"cache.l2_hit_rate", "ratio", "higher", 0},
	{"cache.l2_writebacks", "count", "lower", 0},
	{"dram.accesses", "count", "lower", 0},
	{"dram.row_hit_rate", "ratio", "higher", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"dram.service_ns_per_req.stream", "ns", "lower", 0},
	{"dram.service_ns_per_req.camped", "ns", "lower", 0},

	// ptx: probe over the ten library modules
	{"ptx.parse_us_per_kinstr", "us", "lower", 0},
	{"ptx.instrs", "count", "lower", 0},

	// serve: the driver's result counters (serve_diurnal only)
	{"serve.iterations", "count", "lower", 0},
	{"serve.ms_per_iteration", "ms", "lower", 0},
	{"serve.goodput_req_per_mcycle", "req/Mcycle", "higher", 0},
	{"serve.p99_latency_kcycles", "kcycles", "lower", 0},
	{"serve.ttft_p50_kcycles", "kcycles", "lower", 0},
	{"serve.peak_batch", "count", "higher", 0},
	{"serve.peak_kv_bytes", "count", "lower", 0},
	{"serve.parse_us_per_req", "us", "lower", 0},

	// multigpu / nvlink: workers=1 twin, result counters, probes
	{"multigpu.j1_wall_s", "s", "lower", 0},
	{"multigpu.parallel_speedup", "ratio", "higher", 0},
	{"multigpu.allreduce_us", "us", "lower", 0},
	{"nvlink.ring_allreduce_ns", "ns", "lower", 0},
	{"nvlink.busy_cycles", "count", "lower", 0},
	{"nvlink.stall_cycles", "count", "lower", 0},

	// hwmodel / power
	{"hwmodel.pearson", "ratio", "higher", 0},
	{"hwmodel.oracle_pass_ms", "ms", "lower", 0},
	{"power.total_w", "W", "lower", 0},
	{"power.core_pct", "%", "lower", 0},

	// the untraced passes of the traced run on both clocks (as measured,
	// not normalised), the reference clock beside them, the Go runtime over
	// the traced pass, and the tracer's own cost
	{"host.wall_s", "s", "lower", 0},
	{"host.cpu_s", "s", "lower", 0},
	{"host.ref_slowdown", "ratio", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.mallocs_per_kinstr", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// runSeconds is how long one driver run measures (BENCHMARK.json).
const runSeconds = 18

// writeManifest writes the root BENCHMARK.json from the tables above —
// the file is never edited by hand.
func writeManifest(path string) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
