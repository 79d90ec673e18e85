package serve

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Trace generators and the writer the tests build their scenarios and the
// checked-in traces with; the simulator itself only parses traces.

// Bursty generates n arrivals as a seeded on/off process: bursts of
// burstLen requests arriving as a Poisson stream at burstRate requests
// per million cycles, separated by exponentially distributed silent gaps
// with mean gapMean cycles — the diurnal/bursty shape open-loop serving
// traces show, compressed to simulation scale.
func Bursty(seed int64, burstRate float64, burstLen int, gapMean float64, n, seqLen, steps int) Trace {
	if burstLen < 1 {
		burstLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	tr := Trace{Requests: make([]Request, 0, n)}
	now := 0.0
	for i := 0; i < n; i++ {
		if i > 0 && i%burstLen == 0 {
			now += rng.ExpFloat64() * gapMean
		}
		now += rng.ExpFloat64() / burstRate * 1e6
		tr.Requests = append(tr.Requests, Request{
			ID: i, Arrival: uint64(now), SeqLen: seqLen, Steps: steps,
		})
	}
	return tr
}

// Merge interleaves traces by arrival time (stable: on ties the earlier
// argument wins) and renumbers request IDs in the merged order. Used to
// compose mixed scenarios, e.g. a Poisson baseline with bursts on top.
func Merge(traces ...Trace) Trace {
	var out Trace
	for _, t := range traces {
		out.Requests = append(out.Requests, t.Requests...)
	}
	sort.SliceStable(out.Requests, func(i, j int) bool {
		return out.Requests[i].Arrival < out.Requests[j].Arrival
	})
	for i := range out.Requests {
		out.Requests[i].ID = i
	}
	return out
}

// Format writes the trace in the replayable file format:
//
//	# gpgpusim-serve-trace v1
//	# arrival_cycles seq_len steps
//	104 12 1
//	2260 12 2
//
// One record per line, fields space-separated, '#' lines and blank lines
// ignored on parse. Decode traces (any request with Decode > 0) write
// the v2 format instead:
//
//	# gpgpusim-serve-trace v2
//	# arrival_cycles prefill decode
//	104 12 4
//
// ParseTrace(Format(t)) round-trips exactly for both versions.
func (t Trace) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.decodeMode() {
		fmt.Fprintln(bw, traceHeaderV2)
		fmt.Fprintln(bw, "# arrival_cycles prefill decode")
		for _, r := range t.Requests {
			fmt.Fprintf(bw, "%d %d %d\n", r.Arrival, r.Prefill, r.Decode)
		}
		return bw.Flush()
	}
	fmt.Fprintln(bw, traceHeader)
	fmt.Fprintln(bw, "# arrival_cycles seq_len steps")
	for _, r := range t.Requests {
		fmt.Fprintf(bw, "%d %d %d\n", r.Arrival, r.SeqLen, r.Steps)
	}
	return bw.Flush()
}
