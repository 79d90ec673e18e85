package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"repro/internal/aerial"
	"repro/internal/serve"
	"repro/internal/stats"
)

// serveWorkload drives the inference-serving scenario: an open-loop
// arrival stream (a replayable -trace file, or a seeded Poisson stream
// at -rate) served by the continuous-batching scheduler on the detailed
// GTX 1050 model, reporting the latency distribution and goodput versus
// offered load.
var serveWorkload = workload{
	name: "serve",
	desc: "serves an open-loop inference request stream (-rate or -trace) with continuous batching and reports p50/p99/p99.9 latency, TTFT and goodput; -replay retires repeated chains from the replay cache",
	define: func(fs *flag.FlagSet, workers *int) func(*aerial.Report) error {
		traceFile := fs.String("trace", "", "replayable arrival-trace file to serve instead of a generated Poisson stream")
		rate := fs.Float64("rate", 40, "offered Poisson arrival rate in requests per million cycles")
		requests := fs.Int("requests", 24, "requests in the generated Poisson stream")
		seed := fs.Int64("serve-seed", 1, "seed of the generated Poisson stream")
		decode := fs.Bool("decode", false, "generate a decode trace (-prompt prefill, -gen decode tokens per request) instead of encoder requests; KV-cache bytes gate admission")
		prompt, gen := decodeFlags(fs, "with -decode: ")
		replay, resample := replayFlags(fs, "retire repeated kernel chains from the replay cache")
		return func(rep *aerial.Report) error {
			if err := cmp.Or(checkReplay(*replay, *resample), atLeast("requests", *requests, 1), checkDecode(*prompt, *gen)); err != nil {
				return err
			}
			if !(*rate > 0) { // NaN included: the arrival gaps are drawn from 1/rate
				return usagef("-rate must be > 0 requests per million cycles, got %g", *rate)
			}
			if (isSet(fs, "prompt") || isSet(fs, "gen")) && !*decode {
				return usagef("-prompt/-gen only apply with -decode")
			}
			var tr serve.Trace
			src := fmt.Sprintf("poisson rate %g seed %d", *rate, *seed)
			switch {
			case *traceFile != "":
				for _, name := range []string{"rate", "requests", "serve-seed", "decode"} {
					if isSet(fs, name) {
						return usagef("-%s and -trace are mutually exclusive: -trace replays a recorded arrival stream, -%s shapes the generated one", name, name)
					}
				}
				f, err := os.Open(*traceFile)
				if err != nil {
					return err
				}
				defer f.Close()
				if tr, err = serve.ParseTrace(f); err != nil {
					return err
				}
				src = "trace " + *traceFile
			case *decode:
				tr = serve.Poisson(*seed, *rate, *requests, 0, 0).WithDecode(*prompt, *gen)
			default:
				tr = serve.Poisson(*seed, *rate, *requests, 12, 2)
			}
			if len(tr.Requests) == 0 {
				return fmt.Errorf("serve workload: empty arrival trace")
			}

			res, err := serve.Run(serve.Config{Workers: *workers, Replay: *replay, ReplayResampleEvery: *resample}, tr)
			if err != nil {
				return err
			}
			m := serve.DefaultModel()
			rep.Printf("serve workload: %d layers, %d heads, d_model %d — %d requests (%s), continuous batching cap %d (peak %d), %d iterations\n",
				m.Layers, m.Heads, m.DModel, len(tr.Requests), src, res.BatchCap, res.PeakBatch, res.Iterations)
			if res.Decode {
				rep.Printf("decode serving: per-request prefill+decode chains, KV budget %d bytes (peak resident %d)\n",
					res.KVBudgetBytes, res.PeakKVBytes)
			}
			lat, ttft := res.Latencies(), res.TTFTs()
			rep.Printf("latency p50 %.0f p99 %.0f p99.9 %.0f cycles\n",
				stats.Percentile(lat, 50), stats.Percentile(lat, 99), stats.Percentile(lat, 99.9))
			rep.Printf("ttft p50 %.0f p99 %.0f cycles\n",
				stats.Percentile(ttft, 50), stats.Percentile(ttft, 99))
			rep.Printf("goodput %.1f req/Mcycle vs offered %.1f (utilization %.2f, %d total cycles)\n",
				res.Goodput(), tr.OfferedLoad(), res.Utilization(), res.TotalCycles)
			if *replay {
				st := res.Stats
				cov := 0.0
				if total := st.ReplayHits + st.ReplayMisses; total > 0 {
					cov = float64(st.ReplayHits) / float64(total)
				}
				rep.Printf("replay coverage %.1f%%: %d hits, %d misses, %d resamples, %d memo-applied\n",
					100*cov, st.ReplayHits, st.ReplayMisses, st.ReplayResamples, st.ReplayMemoApplied)
			}
			rep.Table(aerial.ServeLatencyTable("latency percentiles over serving time", res.LatencyOverTime(8)))
			return nil
		}
	},
}
