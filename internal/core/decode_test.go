package core

import (
	"testing"
)

// TestRunDecodeSample exercises the decode sample driver end to end: the
// stream-overlapped and serialized greedy decodes are both verified
// token-for-token against GenerateCPU inside the driver, so here we pin
// the surrounding bookkeeping — launch counts, the overlap win, and the
// per-kernel aggregation covering the cache-aware attention kernels.
func TestRunDecodeSample(t *testing.T) {
	const seqs, promptLen, newTokens = 2, 3, 3
	res, err := RunDecodeSample(1, seqs, promptLen, newTokens)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launches() == 0 || TotalInstrs(res.PerKernel) == 0 {
		t.Fatalf("decode issued no work: %+v", res)
	}
	if len(res.Tokens) != seqs {
		t.Fatalf("got %d token sequences, want %d", len(res.Tokens), seqs)
	}
	for i, toks := range res.Tokens {
		if len(toks) != newTokens {
			t.Fatalf("seq %d generated %d tokens, want %d", i, len(toks), newTokens)
		}
	}
	if res.Speedup() <= 1 {
		t.Errorf("per-sequence decode streams did not overlap: speedup %.3f", res.Speedup())
	}
	if res.TokensPerMcycle() <= 0 {
		t.Errorf("throughput metric not positive: %v", res.TokensPerMcycle())
	}
	want := map[string]bool{
		"kv_cache_append": false, "attn_qk_cached": false, "attn_av_cached": false,
		"softmax_causal": false, "logit_gemv": false, "argmax_u32": false,
	}
	for _, k := range res.PerKernel {
		if _, ok := want[k.Name]; ok {
			want[k.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("decode kernel %s never launched", name)
		}
	}
}

// TestRunDecodeReplay pins the replay contract on the decode chains:
// iteration-transient allocations are freed between generate batches,
// so every post-first-iteration launch replays, and the detailed
// baseline's first iteration matches the hybrid run's cycle for cycle.
func TestRunDecodeReplay(t *testing.T) {
	const iters = 3
	res, err := RunDecodeReplay(1, 2, 3, 3, iters, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Launches() / iters
	if res.Launches() != perIter*iters {
		t.Errorf("launch count %d not divisible by %d iterations", res.Launches(), iters)
	}
	if got, want := res.Stats.ReplayMisses, uint64(perIter); got != want {
		t.Errorf("ReplayMisses = %d, want %d (first iteration only)", got, want)
	}
	if got, want := res.Stats.ReplayHits, uint64(perIter*(iters-1)); got != want {
		t.Errorf("ReplayHits = %d, want %d (every later launch)", got, want)
	}
	if want := float64(iters-1) / float64(iters); res.Stats.ReplayCoverage() < want-1e-9 {
		t.Errorf("Coverage = %v, want %v", res.Stats.ReplayCoverage(), want)
	}
	for _, k := range res.PerKernel {
		if want := k.Launches * (iters - 1) / iters; k.Replayed != want {
			t.Errorf("kernel %s: Replayed = %d, want %d of %d launches", k.Name, k.Replayed, want, k.Launches)
		}
	}

	det, err := RunDecodeReplay(1, 2, 3, 3, iters, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if det.Stats.ReplayHits != 0 || det.Stats.ReplayMisses != 0 || det.Stats.ReplayCoverage() != 0 {
		t.Errorf("detailed run counted replay activity: %+v", det)
	}
	if res.FirstIterCycles != det.FirstIterCycles {
		t.Errorf("first (detailed) iteration diverged: hybrid %d vs detailed %d cycles",
			res.FirstIterCycles, det.FirstIterCycles)
	}
}

// BenchmarkDecodeThroughput measures greedy-decode throughput on the
// repeated generate batch: `detailed` simulates every iteration cycle
// by cycle, `hybrid` replays the steady-state decode steps after the
// first. BENCH_8.json records tokens/Mcycle and the replay coverage.
func BenchmarkDecodeThroughput(b *testing.B) {
	const (
		seqs, promptLen, newTokens = 2, 4, 6
		iters                      = 5
	)
	for _, mode := range []struct {
		name   string
		replay bool
	}{{"detailed", false}, {"hybrid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunDecodeReplay(1, seqs, promptLen, newTokens, iters, 0, true, mode.replay)
				if err != nil {
					b.Fatal(err)
				}
				if mode.replay && res.Stats.ReplayCoverage() == 0 {
					b.Fatal("hybrid decode never hit the replay cache")
				}
				b.ReportMetric(res.TokensPerMcycle(), "tokens_per_mcycle")
				b.ReportMetric(res.Stats.ReplayCoverage(), "coverage")
			}
		})
	}
}
