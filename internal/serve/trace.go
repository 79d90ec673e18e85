// Package serve is the inference-serving scenario layer: an open-loop
// request stream (seeded Poisson, bursty on/off, or a replayable trace
// file) feeding transformer requests into a continuous-batching
// scheduler that coalesces them onto CUDA streams in the detailed timing
// model. The paper profiles ML workloads as closed batches; this package
// simulates the serving regime — requests keep arriving whether or not
// the simulated GPU keeps up — and reports the quantities serving
// systems are judged by: p50/p99/p99.9 latency, time-to-first-token and
// goodput versus offered load.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
)

// Request is one inference request of an arrival trace: it arrives at an
// absolute cycle on the serving clock (open loop — arrival times never
// depend on service progress), carries SeqLen tokens, and needs Steps
// kernel-chain iterations of the model (1 = a single forward pass; >1
// models prefill + decode-style repeated chains, the granularity at
// which continuous batching lets requests join and leave the batch).
type Request struct {
	ID      int
	Arrival uint64 // cycles since serving start
	SeqLen  int
	Steps   int
	// Prefill/Decode are the v2 trace fields for KV-cached autoregressive
	// serving: the request prefills Prefill prompt tokens, then greedy-
	// decodes Decode tokens (one per chain iteration, so Steps == Decode
	// and SeqLen == Prefill on a decode request). Both zero on v1 traces.
	Prefill int
	Decode  int
}

// Trace is an ordered open-loop arrival stream.
type Trace struct {
	Requests []Request
}

// OfferedLoad returns the trace's offered load in requests per million
// cycles (arrival count over the arrival span). 0 for traces with fewer
// than two requests or a zero span.
func (t Trace) OfferedLoad() float64 {
	n := len(t.Requests)
	if n < 2 {
		return 0
	}
	span := t.Requests[n-1].Arrival - t.Requests[0].Arrival
	if span == 0 {
		return 0
	}
	return float64(n-1) / float64(span) * 1e6
}

// validate checks the structural invariants every consumer assumes:
// arrivals sorted (open-loop generators emit in time order; the parser
// rejects violations), positive SeqLen/Steps, and — when any request
// carries decode fields — a uniform decode trace (mixed v1/v2 requests
// would make the scheduler's mode ambiguous) with consistent
// SeqLen/Steps mirrors.
func (t Trace) validate() error {
	decode := t.decodeMode()
	var prev uint64
	for i, r := range t.Requests {
		if r.SeqLen < 1 {
			return fmt.Errorf("serve: request %d has seq_len %d (must be >= 1)", i, r.SeqLen)
		}
		if r.Steps < 1 {
			return fmt.Errorf("serve: request %d has steps %d (must be >= 1)", i, r.Steps)
		}
		if decode {
			if r.Prefill < 1 || r.Decode < 1 {
				return fmt.Errorf("serve: request %d has prefill %d / decode %d in a decode trace (both must be >= 1; mixing v1 and v2 requests is not allowed)", i, r.Prefill, r.Decode)
			}
			if r.SeqLen != r.Prefill || r.Steps != r.Decode {
				return fmt.Errorf("serve: request %d has seq_len %d / steps %d inconsistent with prefill %d / decode %d", i, r.SeqLen, r.Steps, r.Prefill, r.Decode)
			}
		} else if r.Prefill != 0 || r.Decode != 0 {
			return fmt.Errorf("serve: request %d has prefill %d / decode %d in a v1 trace (mixing v1 and v2 requests is not allowed)", i, r.Prefill, r.Decode)
		}
		if r.Arrival < prev {
			return fmt.Errorf("serve: request %d arrives at cycle %d, before request %d at %d (out of order)", i, r.Arrival, i-1, prev)
		}
		prev = r.Arrival
	}
	return nil
}

// decodeMode reports whether the trace is a KV-cached decode trace (v2):
// true iff any request carries decode fields. validate enforces that the
// answer is uniform across the trace.
func (t Trace) decodeMode() bool {
	for _, r := range t.Requests {
		if r.Decode > 0 {
			return true
		}
	}
	return false
}

// WithDecode stamps every request of the trace as a KV-cached decode
// request: prefill prompt tokens, then decode generated tokens (one per
// chain iteration). SeqLen/Steps are mirrored so v1-shaped consumers
// (offered load, admission bookkeeping) keep working.
func (t Trace) WithDecode(prefill, decode int) Trace {
	out := Trace{Requests: append([]Request(nil), t.Requests...)}
	for i := range out.Requests {
		out.Requests[i].SeqLen = prefill
		out.Requests[i].Steps = decode
		out.Requests[i].Prefill = prefill
		out.Requests[i].Decode = decode
	}
	return out
}

// Poisson generates n arrivals as a seeded Poisson process with `rate`
// requests per million cycles; every request carries seqLen tokens and
// steps chain iterations. The same seed always yields the same trace.
func Poisson(seed int64, rate float64, n, seqLen, steps int) Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := Trace{Requests: make([]Request, 0, n)}
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() / rate * 1e6
		tr.Requests = append(tr.Requests, Request{
			ID: i, Arrival: uint64(now), SeqLen: seqLen, Steps: steps,
		})
	}
	return tr
}

// traceHeader / traceHeaderV2 are the version header lines of the
// replayable trace file format. v1 records are `arrival_cycles seq_len
// steps`; v2 records are `arrival_cycles prefill decode` and require the
// v2 header before the first record.
const (
	traceHeader   = "# gpgpusim-serve-trace v1"
	traceHeaderV2 = "# gpgpusim-serve-trace v2"
)

// ParseTrace reads the replayable trace file format, v1 or v2. It is
// strict where a stochastic simulator must be: malformed or negative
// timestamps, truncated records (fewer than three fields), trailing junk
// fields, malformed prefill/decode counts, a v2 header after the first
// record and out-of-order arrivals are all errors, never silently
// skipped — a corrupted trace must not quietly simulate a different
// scenario. It never panics on arbitrary input (FuzzTraceParse).
func ParseTrace(r io.Reader) (Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var tr Trace
	v2 := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			if text == traceHeaderV2 {
				if len(tr.Requests) > 0 {
					return Trace{}, fmt.Errorf("serve: trace line %d: v2 header after %d records (the version header must precede every record)", line, len(tr.Requests))
				}
				v2 = true
			}
			continue
		}
		fields := strings.Fields(text)
		layout := "arrival_cycles seq_len steps"
		if v2 {
			layout = "arrival_cycles prefill decode"
		}
		if len(fields) < 3 {
			return Trace{}, fmt.Errorf("serve: trace line %d: truncated record %q (want: %s)", line, text, layout)
		}
		if len(fields) > 3 {
			return Trace{}, fmt.Errorf("serve: trace line %d: %d fields in %q (want 3: %s)", line, len(fields), text, layout)
		}
		arrival, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return Trace{}, fmt.Errorf("serve: trace line %d: bad arrival timestamp %q: %v", line, fields[0], err)
		}
		req := Request{ID: len(tr.Requests), Arrival: arrival}
		if v2 {
			prefill, err := strconv.Atoi(fields[1])
			if err != nil || prefill < 1 {
				return Trace{}, fmt.Errorf("serve: trace line %d: bad prefill %q (positive integer required)", line, fields[1])
			}
			decode, err := strconv.Atoi(fields[2])
			if err != nil || decode < 1 {
				return Trace{}, fmt.Errorf("serve: trace line %d: bad decode %q (positive integer required)", line, fields[2])
			}
			req.SeqLen, req.Steps = prefill, decode
			req.Prefill, req.Decode = prefill, decode
		} else {
			seqLen, err := strconv.Atoi(fields[1])
			if err != nil || seqLen < 1 {
				return Trace{}, fmt.Errorf("serve: trace line %d: bad seq_len %q (positive integer required)", line, fields[1])
			}
			steps, err := strconv.Atoi(fields[2])
			if err != nil || steps < 1 {
				return Trace{}, fmt.Errorf("serve: trace line %d: bad steps %q (positive integer required)", line, fields[2])
			}
			req.SeqLen, req.Steps = seqLen, steps
		}
		if n := len(tr.Requests); n > 0 && arrival < tr.Requests[n-1].Arrival {
			return Trace{}, fmt.Errorf("serve: trace line %d: arrival %d before previous arrival %d (trace must be time-ordered)", line, arrival, tr.Requests[n-1].Arrival)
		}
		tr.Requests = append(tr.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("serve: reading trace: %w", err)
	}
	return tr, nil
}
