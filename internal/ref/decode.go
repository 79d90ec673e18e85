package ref

// CPU reference implementations of the KV-cached decode operators — the
// oracles for the internal/kernels decode module and the GenerateCPU
// path of torch.TransformerDecoder.

import "math"

func exp32(v float32) float32 { return float32(math.Exp(float64(v))) }

// CacheAppend scatters in[seq, heads*dh] into the head-major cache
// [heads, maxSeq, dh] at row offset pos (in place).
func CacheAppend(cache, in []float32, seq, heads, dh, maxSeq, pos int) {
	for s := 0; s < seq; s++ {
		for h := 0; h < heads; h++ {
			for d := 0; d < dh; d++ {
				cache[(h*maxSeq+pos+s)*dh+d] = in[(s*heads+h)*dh+d]
			}
		}
	}
}

// AttnScoresCached computes scores[h, s, t] = scale·Σ_d q[(h*seq+s)*dh+d]
// · cacheK[(h*maxSeq+t)*dh+d] for t < cacheLen, with q already split
// into [heads, seq, dh]. seq=1 is the decode-step GEMV.
func AttnScoresCached(q, cacheK []float32, seq, heads, dh, maxSeq, cacheLen int, scale float32) []float32 {
	scores := make([]float32, heads*seq*cacheLen)
	for h := 0; h < heads; h++ {
		for s := 0; s < seq; s++ {
			for t := 0; t < cacheLen; t++ {
				var acc float32
				for d := 0; d < dh; d++ {
					acc += float32(q[(h*seq+s)*dh+d] * cacheK[(h*maxSeq+t)*dh+d])
				}
				scores[(h*seq+s)*cacheLen+t] = acc * scale
			}
		}
	}
	return scores
}

// SoftmaxCausal computes the causal-masked row softmax of x[rows, cols]:
// row r attends to the first pos + (r%seq) + 1 columns; masked columns
// are exact zeros. Mirrors the softmax_causal kernel (max-subtracted,
// float32 arithmetic).
func SoftmaxCausal(x []float32, rows, cols, seq, pos int) []float32 {
	y := make([]float32, len(x))
	for r := 0; r < rows; r++ {
		vlen := pos + r%seq + 1
		if vlen > cols {
			vlen = cols
		}
		row := x[r*cols : r*cols+vlen]
		max := float32(-3.4e38)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var total float32
		evs := make([]float32, vlen)
		for j, v := range row {
			evs[j] = exp32(v - max)
			total += evs[j]
		}
		for j := 0; j < vlen; j++ {
			y[r*cols+j] = evs[j] / total
		}
	}
	return y
}

// AttnContextCached computes out[(h*seq+s)*dh+d] = Σ_t probs[(h*seq+s)*
// cacheLen+t] · cacheV[(h*maxSeq+t)*dh+d] — the probabilities·V side of
// cached attention, output in split [heads, seq, dh] layout.
func AttnContextCached(probs, cacheV []float32, seq, heads, dh, maxSeq, cacheLen int) []float32 {
	out := make([]float32, heads*seq*dh)
	for h := 0; h < heads; h++ {
		for s := 0; s < seq; s++ {
			for d := 0; d < dh; d++ {
				var acc float32
				for t := 0; t < cacheLen; t++ {
					acc += float32(probs[(h*seq+s)*cacheLen+t] * cacheV[(h*maxSeq+t)*dh+d])
				}
				out[(h*seq+s)*dh+d] = acc
			}
		}
	}
	return out
}

// LogitGemv computes logits[v] = Σ_d x[d]·table[v*dim+d] for the single
// activation row x[dim] against the tied embedding table [vocab, dim].
func LogitGemv(x, table []float32, vocab, dim int) []float32 {
	logits := make([]float32, vocab)
	for v := 0; v < vocab; v++ {
		var acc float32
		for d := 0; d < dim; d++ {
			acc += float32(x[d] * table[v*dim+d])
		}
		logits[v] = acc
	}
	return logits
}
