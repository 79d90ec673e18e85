package ref

import "math"

// The CPU backward passes of the CNN layers. The GPU kernels they were
// the oracle of are gone (LeNet is inference-only), so only this
// package's own tests call them.

// MaxPoolBackward scatters dy through argmax indices.
func MaxPoolBackward(dy []float32, idx []int32, inCount int) []float32 {
	dx := make([]float32, inCount)
	for i, g := range dy {
		dx[idx[i]] += g
	}
	return dx
}

// LRNBackward mirrors the GPU kernel's widely-used approximation (the
// cross term divides by the current channel's denominator).
func LRNBackward(x, y, dy []float32, c, hw, win int, k, alpha, beta float32) []float32 {
	dx := make([]float32, len(x))
	half := win / 2
	aOverN := alpha / float32(win)
	for cc := 0; cc < c; cc++ {
		for i := 0; i < hw; i++ {
			var sum float32
			for j := cc - half; j <= cc+half; j++ {
				if j < 0 || j >= c {
					continue
				}
				v := x[j*hw+i]
				sum += v * v
			}
			den := k + aOverN*sum
			pow := float32(math.Pow(float64(den), float64(beta)))
			var cross float32
			for j := cc - half; j <= cc+half; j++ {
				if j < 0 || j >= c {
					continue
				}
				cross += dy[j*hw+i] * y[j*hw+i] / den
			}
			dx[cc*hw+i] = dy[cc*hw+i]/pow - 2*aOverN*beta*x[cc*hw+i]*cross
		}
	}
	return dx
}

// SoftmaxNLLBackward computes (y - onehot) / batch.
func SoftmaxNLLBackward(y []float32, labels []int32, rows, cols int) []float32 {
	dx := make([]float32, len(y))
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			g := y[r*cols+j]
			if int32(j) == labels[r] {
				g -= 1
			}
			dx[r*cols+j] = g / float32(rows)
		}
	}
	return dx
}

// ReluBackward computes dy masked by x > 0.
func ReluBackward(dy, x []float32) []float32 {
	dx := make([]float32, len(dy))
	for i := range dy {
		if x[i] > 0 {
			dx[i] = dy[i]
		}
	}
	return dx
}

// NLLLoss computes the mean negative log likelihood of softmax outputs.
func NLLLoss(y []float32, labels []int32, rows, cols int) float32 {
	var loss float64
	for r := 0; r < rows; r++ {
		p := float64(y[r*cols+int(labels[r])])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return float32(loss / float64(rows))
}
