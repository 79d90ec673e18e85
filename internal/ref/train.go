package ref

// CPU reference implementations of the transformer training operators —
// the oracles for the internal/kernels train module and the BackwardCPU
// paths of the internal/torch transformer layers. Reductions run in
// float64 like the forward oracles, so the device kernels' float32
// accumulation is compared against a higher-precision truth.

import "math"

// GemmTN computes C = alpha*Aᵀ*B + beta*C for row-major A[k,m], B[k,n],
// C[m,n] — the weight-gradient GEMM (dW = xᵀ·dy).
func GemmTN(a, bm, cm []float32, m, n, k int, alpha, beta float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += float32(a[p*m+i] * bm[p*n+j])
			}
			cm[i*n+j] = float32(alpha*acc) + float32(beta*cm[i*n+j])
		}
	}
}

// LayerNormBackward differentiates LayerNorm for x[rows, cols]: given the
// upstream dy it returns dx and the per-column parameter gradients
// dgamma[j] = Σ_r dy·x̂ and dbeta[j] = Σ_r dy.
func LayerNormBackward(x, gamma, dy []float32, rows, cols int, eps float32) (dx, dgamma, dbeta []float32) {
	dx = make([]float32, len(x))
	dgamma = make([]float32, cols)
	dbeta = make([]float32, cols)
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		drow := dy[r*cols : (r+1)*cols]
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
		// x̂ = (x-μ)·inv; g = dy·γ; dx = (g - mean(g) - x̂·mean(g·x̂))·inv
		var s1, s2 float64
		for j := range row {
			xh := (float64(row[j]) - mean) * inv
			g := float64(float64(drow[j]) * float64(gamma[j]))
			s1 += g
			s2 += float64(g * xh)
		}
		s1 /= float64(cols)
		s2 /= float64(cols)
		for j := range row {
			xh := (float64(row[j]) - mean) * inv
			g := float64(float64(drow[j]) * float64(gamma[j]))
			dx[r*cols+j] = float32((g - s1 - float64(xh*s2)) * inv)
			dgamma[j] += float32(float64(drow[j]) * xh)
			dbeta[j] += drow[j]
		}
	}
	return dx, dgamma, dbeta
}

// GeluBackward computes dx = dy·GELU'(x) for the tanh-form GELU.
func GeluBackward(x, dy []float32) []float32 {
	dx := make([]float32, len(x))
	const c0 = 0.7978845608028654 // sqrt(2/pi)
	const c1 = 0.044715
	for i, v := range x {
		z := float64(v)
		u := c0 * (z + float64(c1*z*z*z))
		t := math.Tanh(u)
		du := c0 * (1 + float64(3*c1*z*z))
		d := float64(0.5*(1+t)) + float64(0.5*z*(1-float64(t*t))*du)
		dx[i] = float32(float64(dy[i]) * d)
	}
	return dx
}

// SoftmaxBackward differentiates a row softmax: given the forward output
// probs[rows, cols] and the upstream dprobs, it returns
// dx[r,j] = probs[r,j]·(dprobs[r,j] - Σ_k dprobs[r,k]·probs[r,k]).
func SoftmaxBackward(probs, dprobs []float32, rows, cols int) []float32 {
	dx := make([]float32, len(probs))
	for r := 0; r < rows; r++ {
		var dot float64
		for j := 0; j < cols; j++ {
			dot += float64(float64(dprobs[r*cols+j]) * float64(probs[r*cols+j]))
		}
		for j := 0; j < cols; j++ {
			dx[r*cols+j] = float32(float64(probs[r*cols+j]) * (float64(dprobs[r*cols+j]) - dot))
		}
	}
	return dx
}

// SoftmaxXentBackward is the fused softmax + cross-entropy gradient on
// raw logits[rows, cols]: dx = (softmax(logits) - onehot(label))/rows,
// plus the per-row loss -log softmax(logits)[label].
func SoftmaxXentBackward(logits []float32, labels []int32, rows, cols int) (dx, loss []float32) {
	dx = make([]float32, len(logits))
	loss = make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := logits[r*cols : (r+1)*cols]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var total float64
		for _, v := range row {
			total += math.Exp(float64(v - max))
		}
		lab := int(labels[r])
		loss[r] = float32(math.Log(total) - float64(row[lab]-max))
		for j, v := range row {
			p := math.Exp(float64(v-max)) / total
			hot := 0.0
			if j == lab {
				hot = 1
			}
			dx[r*cols+j] = float32((p - hot) / float64(rows))
		}
	}
	return dx, loss
}

// EmbeddingBackward scatter-adds the output gradient dy[rows, cols] into
// a [vocab, cols] table gradient by token id — the weight-update pattern
// the device kernel implements with global atomics.
func EmbeddingBackward(dy []float32, ids []int32, vocab, cols int) []float32 {
	dt := make([]float32, vocab*cols)
	for i, id := range ids {
		for j := 0; j < cols; j++ {
			dt[int(id)*cols+j] += dy[i*cols+j]
		}
	}
	return dt
}
