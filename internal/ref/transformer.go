package ref

// CPU reference implementations of the transformer-inference operators,
// the oracles for the internal/kernels transformer module and the
// ForwardCPU paths of the internal/torch transformer layers.

import "math"

// LayerNorm normalises each row of x[rows, cols] to zero mean and unit
// variance and applies the affine parameters: y = (x-μ)/√(σ²+eps)·γ+β.
func LayerNorm(x, gamma, beta []float32, rows, cols int, eps float32) []float32 {
	y := make([]float32, len(x))
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		var sum float64
		for _, v := range row {
			sum += float64(v)
		}
		mean := sum / float64(cols)
		var sq float64
		for _, v := range row {
			d := float64(v) - mean
			sq += float64(d * d)
		}
		inv := 1 / math.Sqrt(sq/float64(cols)+float64(eps))
		for j, v := range row {
			y[r*cols+j] = float32(float32((float64(v)-mean)*inv)*gamma[j]) + beta[j]
		}
	}
	return y
}

// Gelu computes the tanh-form GELU:
// y = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))).
func Gelu(x []float32) []float32 {
	y := make([]float32, len(x))
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range x {
		z := float64(v)
		y[i] = float32(0.5 * z * (1 + math.Tanh(c0*(z+float64(0.044715*z*z*z)))))
	}
	return y
}

// AddResidual computes y[i] = x[i] + r[i].
func AddResidual(x, r []float32) []float32 {
	y := make([]float32, len(x))
	for i := range x {
		y[i] = x[i] + r[i]
	}
	return y
}

// GemmNT computes C = alpha*A*Bᵀ + beta*C for row-major A[m,k], B[n,k].
func GemmNT(a, bm, cm []float32, m, n, k int, alpha, beta float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += float32(a[i*k+p] * bm[j*k+p])
			}
			cm[i*n+j] = float32(alpha*acc) + float32(beta*cm[i*n+j])
		}
	}
}

// SplitHeads permutes x[seq, heads*dh] into [heads, seq, dh].
func SplitHeads(x []float32, seq, heads, dh int) []float32 {
	y := make([]float32, len(x))
	for h := 0; h < heads; h++ {
		for s := 0; s < seq; s++ {
			for d := 0; d < dh; d++ {
				y[(h*seq+s)*dh+d] = x[(s*heads+h)*dh+d]
			}
		}
	}
	return y
}

// MergeHeads permutes x[heads, seq, dh] back into [seq, heads*dh].
func MergeHeads(x []float32, seq, heads, dh int) []float32 {
	y := make([]float32, len(x))
	for s := 0; s < seq; s++ {
		for h := 0; h < heads; h++ {
			for d := 0; d < dh; d++ {
				y[(s*heads+h)*dh+d] = x[(h*seq+s)*dh+d]
			}
		}
	}
	return y
}

// EmbeddingLookup gathers rows of table[vocab, cols] by id.
func EmbeddingLookup(table []float32, ids []int32, cols int) []float32 {
	y := make([]float32, len(ids)*cols)
	for i, id := range ids {
		copy(y[i*cols:(i+1)*cols], table[int(id)*cols:(int(id)+1)*cols])
	}
	return y
}
