package main

import (
	"fmt"
	"os"

	"repro/internal/aerial"
	"repro/internal/serve"
	"repro/internal/stats"
)

// runServeWorkload drives the inference-serving scenario: an open-loop
// arrival stream (a replayable -trace file, or a seeded Poisson stream
// at -rate) served by the continuous-batching scheduler on the detailed
// GTX 1050 model, reporting the latency distribution and goodput versus
// offered load.
func runServeWorkload(o workloadOpts) error {
	var tr serve.Trace
	if o.traceFile != "" {
		f, err := os.Open(o.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if tr, err = serve.ParseTrace(f); err != nil {
			return err
		}
	} else if o.serveDecode {
		tr = serve.Poisson(o.serveSeed, o.rate, o.requests, 0, 0).WithDecode(o.prompt, o.gen)
	} else {
		tr = serve.Poisson(o.serveSeed, o.rate, o.requests, 12, 2)
	}
	if len(tr.Requests) == 0 {
		return fmt.Errorf("serve workload: empty arrival trace")
	}

	cfg := serve.Config{
		Workers:             o.workers,
		Replay:              o.replay,
		ReplayResampleEvery: o.resampleEvery,
	}
	res, err := serve.Run(cfg, tr)
	if err != nil {
		return err
	}

	m := serve.DefaultModel()
	src := fmt.Sprintf("trace %s", o.traceFile)
	if o.traceFile == "" {
		src = fmt.Sprintf("poisson rate %g seed %d", o.rate, o.serveSeed)
	}
	fmt.Printf("serve workload: %d layers, %d heads, d_model %d — %d requests (%s), continuous batching cap %d (peak %d), %d iterations\n",
		m.Layers, m.Heads, m.DModel, len(tr.Requests), src, res.BatchCap, res.PeakBatch, res.Iterations)
	if res.Decode {
		fmt.Printf("decode serving: per-request prefill+decode chains, KV budget %d bytes (peak resident %d)\n",
			res.KVBudgetBytes, res.PeakKVBytes)
	}
	lat := res.Latencies()
	ttft := res.TTFTs()
	fmt.Printf("latency p50 %.0f p99 %.0f p99.9 %.0f cycles\n",
		stats.Percentile(lat, 50), stats.Percentile(lat, 99), stats.Percentile(lat, 99.9))
	fmt.Printf("ttft p50 %.0f p99 %.0f cycles\n",
		stats.Percentile(ttft, 50), stats.Percentile(ttft, 99))
	fmt.Printf("goodput %.1f req/Mcycle vs offered %.1f (utilization %.2f, %d total cycles)\n",
		res.Goodput(), tr.OfferedLoad(), res.Utilization(), res.TotalCycles)
	if o.replay {
		st := res.Stats
		total := st.ReplayHits + st.ReplayMisses
		cov := 0.0
		if total > 0 {
			cov = float64(st.ReplayHits) / float64(total)
		}
		fmt.Printf("replay coverage %.1f%%: %d hits, %d misses, %d resamples, %d memo-applied\n",
			100*cov, st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayMemoApplied)
	}
	aerial.ServeLatencyTable("latency percentiles over serving time", res.LatencyOverTime(8)).WriteText(os.Stdout)
	return nil
}
