package serve

// The continuous-batching scheduler: requests from an open-loop trace
// join a running batch at kernel-chain boundaries, every admitted
// request's chain rides its own CUDA stream through the detailed timing
// engine, and completed requests leave the batch while later arrivals
// take their place — iteration-level scheduling over the PR 3 stream
// chains and the PR 4 O(active) drain.
//
// Determinism contract (the serving extension of the -j1 vs -jN
// byte-identity contract): every scheduling decision — admission,
// batch composition, stream assignment, completion — happens here on
// the coordinator goroutine, in arrival order, keyed only off the
// engine's deterministic cycle counts. Worker count can therefore never
// change a serving run's Stats, per-request latencies or replay
// counters, which TestServeWorkerDeterminism pins.

import (
	"fmt"
	"math/rand"

	"repro/internal/cudart"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/torch"
)

// Config sizes a serving run.
type Config struct {
	// Model is the served transformer, on a simulated GTX 1050; a zero
	// value selects DefaultModel.
	Model torch.TransformerConfig
	// Workers is the engine's host worker count (0 = 1; negative = all
	// CPUs). Results are byte-identical for any value.
	Workers int
	// MaxBatch caps concurrent requests in the batch. 0 derives the cap
	// from the engine's occupancy headroom (see admissionCap).
	MaxBatch int
	// ModelSeed seeds the model weights (0 selects 7, the seed the other
	// transformer drivers use).
	ModelSeed int64
	// Replay enables hybrid replay mode on the engine: repeated kernel
	// chains retire from memoized timing, with functional effects still
	// exact. ReplayResampleEvery is timing.Config.ReplayResampleEvery.
	Replay              bool
	ReplayResampleEvery int
	// KeepOutputs retains each request's final-step output activations
	// in Result.Outputs (decode traces: its generated tokens in
	// Result.Tokens instead). The replay-equivalence tests compare them.
	KeepOutputs bool
	// KVBudgetBytes caps the modelled KV-cache bytes resident across the
	// batch on decode traces: a request is only admitted while the sum of
	// per-session cache footprints (torch.KVCacheBytes of the model) stays
	// within the budget, and retirement frees its share. 0 selects
	// DefaultKVBudgetBytes. Ignored on v1 traces.
	KVBudgetBytes int
}

// DefaultKVBudgetBytes is the decode admission budget when
// Config.KVBudgetBytes is zero — 256 KiB, 32 DefaultModel sessions.
const DefaultKVBudgetBytes = 256 << 10

// DefaultModel is the served encoder: the same shape the transformer
// workload family uses, so serve runs exercise every kernel family.
func DefaultModel() torch.TransformerConfig { return torch.SampleTransformerConfig() }

// RequestStats is one request's serving outcome. All times are absolute
// cycles on the serving clock (cycle 0 = serving start).
type RequestStats struct {
	ID         int
	Arrival    uint64
	Admitted   uint64 // chain boundary the request joined the batch at
	FirstToken uint64 // end of its first kernel-chain iteration
	Completed  uint64 // end of its last kernel-chain iteration
}

// Latency returns arrival-to-completion cycles.
func (r RequestStats) Latency() uint64 { return r.Completed - r.Arrival }

// TTFT returns arrival-to-first-token cycles (end of the first chain
// iteration that included the request).
func (r RequestStats) TTFT() uint64 { return r.FirstToken - r.Arrival }

// LatencyBucket is one time window of a serving run's latency series:
// completions falling in (start, EndCycle] with their nearest-rank
// percentiles — the rows behind serve_latency.csv.
type LatencyBucket struct {
	EndCycle  uint64
	Completed int
	P50       float64
	P99       float64
	P999      float64
}

// Result summarises a serving run.
type Result struct {
	Trace       Trace
	Requests    []RequestStats // completion order
	Outputs     [][]float32    // by request ID, final step (KeepOutputs)
	TotalCycles uint64         // serving-clock end (busy + idle)
	BusyCycles  uint64         // cycles spent inside chain iterations
	Iterations  int            // kernel-chain boundaries crossed
	BatchCap    int            // admission cap in effect
	PeakBatch   int            // largest concurrent batch observed
	Log         []cudart.KernelStats
	Stats       timing.Stats // engine counters, replay counters included

	// Decode-trace fields (zero on v1 traces): the KV admission budget in
	// effect, the largest resident KV footprint observed, and — with
	// KeepOutputs — each request's generated token ids by request ID.
	Decode        bool
	KVBudgetBytes int
	PeakKVBytes   int
	Tokens        [][]int32
}

// Latencies returns per-request latency samples in completion order.
func (r *Result) Latencies() []float64 {
	out := make([]float64, len(r.Requests))
	for i, q := range r.Requests {
		out[i] = float64(q.Latency())
	}
	return out
}

// TTFTs returns per-request time-to-first-token samples in completion
// order.
func (r *Result) TTFTs() []float64 {
	out := make([]float64, len(r.Requests))
	for i, q := range r.Requests {
		out[i] = float64(q.TTFT())
	}
	return out
}

// Goodput returns completed requests per million cycles.
func (r *Result) Goodput() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(len(r.Requests)) / float64(r.TotalCycles) * 1e6
}

// Utilization returns the fraction of serving time spent inside chain
// iterations (the rest is idle waiting for arrivals).
func (r *Result) Utilization() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.BusyCycles) / float64(r.TotalCycles)
}

// LatencyOverTime splits the serving span into n windows and returns the
// completion-latency percentiles of each — latency percentiles over
// time, the aerial serving view. Windows with no completions carry zero
// percentiles and Completed == 0.
func (r *Result) LatencyOverTime(n int) []LatencyBucket {
	if n < 1 || r.TotalCycles == 0 {
		return nil
	}
	width := (r.TotalCycles + uint64(n) - 1) / uint64(n)
	if width == 0 {
		width = 1
	}
	out := make([]LatencyBucket, n)
	samples := make([][]float64, n)
	for _, q := range r.Requests {
		b := int(q.Completed / width)
		if b >= n {
			b = n - 1
		}
		samples[b] = append(samples[b], float64(q.Latency()))
	}
	for i := range out {
		out[i].EndCycle = uint64(i+1) * width
		out[i].Completed = len(samples[i])
		if len(samples[i]) > 0 {
			out[i].P50 = stats.Percentile(samples[i], 50)
			out[i].P99 = stats.Percentile(samples[i], 99)
			out[i].P999 = stats.Percentile(samples[i], 99.9)
		}
	}
	return out
}

// admissionCap derives how many requests may share the batch from the
// engine's occupancy headroom: each resident sequence's widest kernel
// (the per-head attention GEMM or the FF projection, 8 warps per 16x16
// tile CTA) must fit in the machine's warp contexts alongside the other
// sequences'. Beyond that point extra sequences only deepen the
// dispatcher queue without overlapping, so admitting them would grow
// batch latency for no goodput — the serving analog of KV-cache
// admission control. Always at least 1.
func admissionCap(cfg *timing.Config, m torch.TransformerConfig, maxSeq int) int {
	const tile, warpsPerCTA = 16, 8
	tiles := func(n int) int { return (n + tile - 1) / tile }
	attn := m.Heads * tiles(maxSeq) * tiles(maxSeq) * warpsPerCTA
	wide := m.FF
	if m.DModel > wide {
		wide = m.DModel
	}
	proj := tiles(maxSeq) * tiles(wide) * warpsPerCTA
	peak := attn
	if proj > peak {
		peak = proj
	}
	n := cfg.NumSMs * cfg.MaxWarpsPerSM / peak
	if n < 1 {
		n = 1
	}
	return n
}

// tokensFor builds request id's deterministic token sequence.
func tokensFor(id, seqLen, vocab int) []int32 {
	ids := make([]int32, seqLen)
	for j := range ids {
		ids[j] = int32((id*13 + j*5) % vocab)
	}
	return ids
}

// activeReq is one request resident in the continuous batch.
type activeReq struct {
	req       Request
	stats     RequestStats
	stepsLeft int
	admitted  bool // false until its first chain iteration completes
	// session is the request's KV-cache decode state (decode traces
	// only). Its allocations are Keep'd across chain iterations and
	// released at retirement, returning its bytes to the KV admission
	// budget.
	session *torch.DecodeSession
}

// Run simulates serving the trace to completion and returns the
// per-request latency outcomes plus the engine-level statistics.
func Run(cfg Config, tr Trace) (*Result, error) {
	if err := tr.validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model.Layers == 0 {
		model = DefaultModel()
	}
	engCfg := timing.GTX1050()
	engCfg.ReplayEnabled = cfg.Replay
	engCfg.ReplayResampleEvery = cfg.ReplayResampleEvery
	decode := tr.decodeMode()
	for _, r := range tr.Requests {
		if r.SeqLen > model.MaxSeq {
			return nil, fmt.Errorf("serve: request %d seq_len %d exceeds the model's MaxSeq %d", r.ID, r.SeqLen, model.MaxSeq)
		}
		if decode && r.Prefill+r.Decode-1 > model.MaxSeq {
			return nil, fmt.Errorf("serve: request %d prefill %d + decode %d exceeds the model's MaxSeq %d", r.ID, r.Prefill, r.Decode, model.MaxSeq)
		}
	}
	seed := cfg.ModelSeed
	if seed == 0 {
		seed = 7
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 1
	}

	s, err := session.New(engCfg, workers)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	dev, eng := s.Dev, s.Eng
	var (
		enc *torch.TransformerEncoder
		dec *torch.TransformerDecoder
	)
	if decode {
		dec, err = torch.NewTransformerDecoder(dev, rand.New(rand.NewSource(seed)), model)
	} else {
		enc, err = torch.NewTransformerEncoder(dev, rand.New(rand.NewSource(seed)), model)
	}
	if err != nil {
		return nil, err
	}

	kvBytes := torch.KVCacheBytes(model)
	kvBudget := cfg.KVBudgetBytes
	if kvBudget <= 0 {
		kvBudget = DefaultKVBudgetBytes
	}
	if decode && kvBytes > kvBudget {
		return nil, fmt.Errorf("serve: KV budget %d bytes cannot hold even one session (%d bytes per request)", kvBudget, kvBytes)
	}

	// Model state persists; everything allocated past this point is
	// freed at each chain boundary unless a resident session Keeps it, so
	// identical batch compositions see identical device addresses.
	s.Pin()

	batchCap := cfg.MaxBatch
	if batchCap <= 0 {
		batchCap = admissionCap(&engCfg, model, model.MaxSeq)
	}

	res := &Result{Trace: tr, BatchCap: batchCap, Decode: decode}
	if decode {
		res.KVBudgetBytes = kvBudget
	}
	if cfg.KeepOutputs {
		if decode {
			res.Tokens = make([][]int32, len(tr.Requests))
		} else {
			res.Outputs = make([][]float32, len(tr.Requests))
		}
	}

	var (
		now     uint64 // serving clock; 0 = serving start
		active  []*activeReq
		nextArr int // cursor into tr.Requests
		kvUsed  int // resident KV-cache bytes (decode traces)
	)
	for len(active) > 0 || nextArr < len(tr.Requests) {
		// Idle fast-forward: an empty batch waits for the next arrival.
		// (An empty batch holds no KV bytes, so the budget never blocks
		// the head request here — one session always fits, checked above.)
		if len(active) == 0 && tr.Requests[nextArr].Arrival > now {
			now = tr.Requests[nextArr].Arrival
		}
		// Admission, on the coordinator, in arrival order, gated by the
		// occupancy headroom cap and — on decode traces — the KV-cache
		// byte budget. Never out of order: a KV-blocked head request also
		// blocks every later arrival, so a request can only be overtaken
		// by completions, not by later arrivals.
		for nextArr < len(tr.Requests) && len(active) < batchCap &&
			tr.Requests[nextArr].Arrival <= now &&
			(!decode || kvUsed+kvBytes <= kvBudget) {
			r := tr.Requests[nextArr]
			nextArr++
			a := &activeReq{
				req:       r,
				stepsLeft: r.Steps,
				stats: RequestStats{
					ID: r.ID, Arrival: r.Arrival, Admitted: now,
				},
			}
			if decode {
				// The decode session (KV caches + id buffer) is allocated
				// at the chain boundary — allocator state here is the
				// pinned model plus the resident sessions — and persists
				// until retirement.
				ds, err := dec.NewSession(tokensFor(r.ID, r.Prefill, model.Vocab))
				if err != nil {
					return nil, err
				}
				a.session = ds
				s.Keep(ds.Allocations())
				kvUsed += kvBytes
				if kvUsed > res.PeakKVBytes {
					res.PeakKVBytes = kvUsed
				}
			}
			active = append(active, a)
		}
		if len(active) > res.PeakBatch {
			res.PeakBatch = len(active)
		}

		// One continuous-batching iteration: every resident request's
		// kernel chain on its own stream, drained at the chain boundary.
		// Decode traces issue one step per request — the prompt prefill
		// on its first iteration, a single-token decode step after.
		iterStart := eng.Cycle()
		var outs [][]float32
		if decode {
			err := dev.OnStreams(len(active), true, func(i int) error {
				ds := active[i].session
				if ds.Len == 0 {
					return dec.PrefillStep(ds)
				}
				return dec.DecodeStep(ds)
			})
			if err != nil {
				return nil, err
			}
		} else {
			batch := make([][]int32, len(active))
			for i, a := range active {
				batch[i] = tokensFor(a.req.ID, a.req.SeqLen, model.Vocab)
			}
			var err error
			outs, err = enc.ForwardBatch(batch, true)
			if err != nil {
				return nil, err
			}
		}
		iterCycles := eng.Cycle() - iterStart
		now += iterCycles
		res.BusyCycles += iterCycles
		res.Iterations++

		// Retire finished requests (in batch order = admission order) and
		// compact the batch; survivors keep their slots. Retiring a decode
		// request downloads its tokens (the boundary drain above makes
		// that safe), frees its session and returns its KV bytes.
		keep := active[:0]
		for i, a := range active {
			if !a.admitted {
				a.admitted = true
				a.stats.FirstToken = now
			}
			a.stepsLeft--
			if a.stepsLeft > 0 {
				keep = append(keep, a)
				continue
			}
			a.stats.Completed = now
			res.Requests = append(res.Requests, a.stats)
			if decode {
				if cfg.KeepOutputs {
					res.Tokens[a.req.ID] = a.session.Tokens()
				}
				s.Drop(a.session.Allocations())
				a.session.Free()
				kvUsed -= kvBytes
			} else if cfg.KeepOutputs {
				res.Outputs[a.req.ID] = outs[i]
			}
		}
		for i := len(keep); i < len(active); i++ {
			active[i] = nil
		}
		active = keep

		// Outputs are already on the host; id uploads and activations go.
		if err := s.EndIteration(); err != nil {
			return nil, err
		}
	}
	res.TotalCycles = now
	res.Log = append([]cudart.KernelStats(nil), dev.Ctx.KernelStatsLog()...)
	res.Stats = *eng.Stats()
	return res, nil
}
