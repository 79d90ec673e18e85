package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/torch"
)

// TestRunTransformerReplay exercises the repeated-batch driver in hybrid
// mode end to end: the first iteration misses and later iterations hit
// (the free-delta between iterations restores allocator state, so
// re-launches build identical param images), outputs stay bit-equal to
// the detailed first iteration (checked inside the driver), and the
// per-kernel aggregation splits out the replayed launches.
func TestRunTransformerReplay(t *testing.T) {
	const iters = 3
	res, err := RunTransformerReplay(1, 2, 8, iters, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	perIter := res.Launches / iters
	if res.Launches != perIter*iters {
		t.Errorf("launch count %d not divisible by %d iterations", res.Launches, iters)
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
	// iteration 2 captures each kernel's functional memo while
	// executing; iteration 3 onward must ride the write-set fast path
	// (the batch is bit-repeatable, so every read-set validates)
	if got, want := res.Stats.ReplayMemoApplied, uint64(perIter*(iters-2)); got != want {
		t.Errorf("ReplayMemoApplied = %d, want %d", got, want)
	}
	if res.MaxAbsDiff > 1e-4 {
		t.Errorf("MaxAbsDiff vs CPU oracle = %v", res.MaxAbsDiff)
	}
	for _, k := range res.PerKernel {
		if want := k.Launches * (iters - 1) / iters; k.Replayed != want {
			t.Errorf("kernel %s: Replayed = %d, want %d of %d launches", k.Name, k.Replayed, want, k.Launches)
		}
	}

	det, err := RunTransformerReplay(1, 2, 8, iters, 0, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if det.Stats.ReplayHits != 0 || det.Stats.ReplayMisses != 0 || det.Stats.ReplayCoverage() != 0 {
		t.Errorf("detailed run counted replay activity: %+v", det)
	}
	// cold caches make the detailed baseline's first iteration identical
	if res.FirstIterCycles != det.FirstIterCycles {
		t.Errorf("first (detailed) iteration diverged: hybrid %d vs detailed %d cycles",
			res.FirstIterCycles, det.FirstIterCycles)
	}
}

// BenchmarkTransformerReplay measures the wall-clock win of hybrid
// replay on the repeated-kernel transformer batch: `detailed` simulates
// every iteration cycle by cycle, `hybrid` simulates the first and
// replays the rest. BENCH_6.json records the ratio (the issue's
// acceptance floor is 5x).
func BenchmarkTransformerReplay(b *testing.B) {
	const (
		seqs, seqLen = 4, 12
		iters        = 10
	)
	for _, mode := range []struct {
		name   string
		replay bool
	}{{"detailed", false}, {"hybrid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunTransformerReplay(1, seqs, seqLen, iters, 0, true, mode.replay)
				if err != nil {
					b.Fatal(err)
				}
				if mode.replay && res.Stats.ReplayCoverage() == 0 {
					b.Fatal("hybrid run never hit the replay cache")
				}
				b.ReportMetric(res.Stats.ReplayCoverage(), "coverage")
			}
		})
	}
}

// warmRun is what warmIterations measured over the warm iterations.
type warmRun struct {
	iters     int           // warm iterations measured
	elapsed   time.Duration // their wall time
	mallocs   uint64        // heap allocations during them
	retained  int64         // live heap after them less live heap before, each read after a collection
	launches  int           // kernel launches during them
	batchHits uint64        // drain batches the batch rung retired, whole run
}

// warmClimb is how many iterations of the sample batch the replay ladder
// takes to climb to its batch rung: detailed, memo capture, two
// all-applied sightings.
const warmClimb = 4

// warmIterations runs warmClimb+warm iterations of the sample forward
// batch (4 sequences x 12 tokens on 4 streams, 204 launches) on one
// hybrid-replay session and measures the warm ones after the climb. The
// window closes after Iterate returns, so it holds what the session hands
// back about the run as well. Every iteration after the climb must retire
// as one batch.
func warmIterations(warm int) (warmRun, error) {
	const seqs, seqLen = 4, 12
	iters := warmClimb + warm
	cfg := DefaultTransformerConfig()
	batch := TransformerBatch(seqs, seqLen, cfg.Vocab)
	s, err := sampleSession(1, 0, true)
	if err != nil {
		return warmRun{}, err
	}
	defer s.Close()
	enc, err := torch.NewTransformerEncoder(s.Dev, rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		return warmRun{}, err
	}
	s.Pin()
	w := warmRun{iters: warm}
	var warmStart time.Time
	var before, after runtime.MemStats
	run, err := s.Iterate(iters, func(it int) error {
		if it == warmClimb {
			runtime.GC()
			runtime.ReadMemStats(&before)
			warmStart = time.Now()
		}
		_, err := enc.ForwardBatch(batch, true)
		return err
	})
	if err != nil {
		return warmRun{}, err
	}
	w.elapsed = time.Since(warmStart)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&after)
	w.retained = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(run) // what Iterate handed back is live in the window
	w.launches = run.Launches / iters * warm
	w.batchHits = run.Stats.ReplayBatchHits
	if w.batchHits != uint64(warm) {
		return warmRun{}, fmt.Errorf("%d of %d warm iterations retired as a batch", w.batchHits, warm)
	}
	return w, nil
}

// TestWarmLaunchAllocs bounds what a warm launch allocates: after the
// ladder's climb, 20 iterations retire through the batch rung at no more
// than 5 heap allocations per launch — the parameter buffer, the grid,
// the replay signature's parameter string, the model layer's tensors;
// the kernel log, the engine's tickets and the parameter marshalling
// add none in the steady state.
func TestWarmLaunchAllocs(t *testing.T) {
	w, err := warmIterations(20)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(w.mallocs) / float64(w.launches); per > 5 {
		t.Errorf("%.2f heap allocations per warm launch (%d over %d launches), want at most 5", per, w.mallocs, w.launches)
	}
}

// TestWarmLaunchRetainedBytes bounds the heap a warm launch keeps alive:
// after the ladder's climb, 20 iterations retire through the batch rung
// retaining at most 48 bytes per launch, what Iterate hands back
// included. The launch log interns its records, so a launch whose record
// repeats an earlier one keeps only its 16-byte entry; a log that stores
// the 144-byte record of every launch, or a session that hands back a
// flat copy of it, fails the bound.
func TestWarmLaunchRetainedBytes(t *testing.T) {
	w, err := warmIterations(20)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(w.retained) / float64(w.launches)
	t.Logf("%.1f bytes retained per warm launch (%d over %d launches)", per, w.retained, w.launches)
	if per > 48 {
		t.Errorf("%.1f bytes retained per warm launch (%d over %d launches), want at most 48", per, w.retained, w.launches)
	}
}

// BenchmarkReplayWarmIteration times the steady state of hybrid replay:
// 199 iterations of the sample forward batch on one session, of which the
// first four are the ladder's climb and the 195 after it retire through
// the replay cache's batch rung and are measured, up to Iterate's return.
// It is the handle for a profile of what a warm iteration still costs:
//
//	go test ./internal/core -run '^$' -bench ReplayWarmIteration -benchtime 5x -cpuprofile cpu.prof
func BenchmarkReplayWarmIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := warmIterations(195)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(w.elapsed.Microseconds())/float64(w.iters), "us_per_warm_iter")
		b.ReportMetric(float64(w.batchHits), "batch_hits")
		b.ReportMetric(float64(w.mallocs)/float64(w.launches), "allocs_per_launch")
		b.ReportMetric(float64(w.retained)/float64(w.launches), "retained_bytes_per_launch")
	}
}

// TestDriversCloseTheirSessions: a driver that does not hand its engine
// out must not leave the engine's worker goroutines behind. With -j 4
// RunTransformerSample builds two sessions; the goroutine count has to
// return to its pre-call value.
func TestDriversCloseTheirSessions(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunTransformerSample(4, 2, 8); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before RunTransformerSample(4, 2, 8), %d still running after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
