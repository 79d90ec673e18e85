// Package ref contains straightforward CPU reference implementations of
// every operator the GPU library provides. They serve three roles: the
// golden oracle for kernel unit tests, the "self-checking code" analog of
// the paper's MNIST sample (§IV), and the CPU execution path of the
// mini-framework in internal/torch.
package ref

import "math"

// TensorShape4 describes an NCHW tensor.
type TensorShape4 struct{ N, C, H, W int }

// Count returns the element count.
func (s TensorShape4) Count() int { return s.N * s.C * s.H * s.W }

// ConvParams describes a square-window convolution (cross-correlation).
type ConvParams struct {
	Stride int
	Pad    int
}

// ConvOut returns the output spatial size for input edge h and filter r.
func (p ConvParams) ConvOut(h, r int) int {
	return (h+2*p.Pad-r)/p.Stride + 1
}

// Conv2DForward computes y[n,k,oy,ox] = Σ x[n,c,oy*s-p+r, ox*s-p+q] *
// w[k,c,r,q] (cross-correlation, NCHW / KCRS).
func Conv2DForward(x []float32, xs TensorShape4, w []float32, k, r int, p ConvParams) ([]float32, TensorShape4) {
	oh := p.ConvOut(xs.H, r)
	ow := p.ConvOut(xs.W, r)
	ys := TensorShape4{N: xs.N, C: k, H: oh, W: ow}
	y := make([]float32, ys.Count())
	for n := 0; n < xs.N; n++ {
		for kk := 0; kk < k; kk++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for c := 0; c < xs.C; c++ {
						for rr := 0; rr < r; rr++ {
							iy := oy*p.Stride - p.Pad + rr
							if iy < 0 || iy >= xs.H {
								continue
							}
							for qq := 0; qq < r; qq++ {
								ix := ox*p.Stride - p.Pad + qq
								if ix < 0 || ix >= xs.W {
									continue
								}
								xv := x[((n*xs.C+c)*xs.H+iy)*xs.W+ix]
								wv := w[((kk*xs.C+c)*r+rr)*r+qq]
								acc += float32(xv * wv)
							}
						}
					}
					y[((n*k+kk)*oh+oy)*ow+ox] = acc
				}
			}
		}
	}
	return y, ys
}

// Conv2DBackwardData computes dx given dy and w.
func Conv2DBackwardData(dy []float32, ys TensorShape4, w []float32, c, r int, xs TensorShape4, p ConvParams) []float32 {
	dx := make([]float32, xs.Count())
	k := ys.C
	for n := 0; n < xs.N; n++ {
		for kk := 0; kk < k; kk++ {
			for oy := 0; oy < ys.H; oy++ {
				for ox := 0; ox < ys.W; ox++ {
					g := dy[((n*k+kk)*ys.H+oy)*ys.W+ox]
					for cc := 0; cc < c; cc++ {
						for rr := 0; rr < r; rr++ {
							iy := oy*p.Stride - p.Pad + rr
							if iy < 0 || iy >= xs.H {
								continue
							}
							for qq := 0; qq < r; qq++ {
								ix := ox*p.Stride - p.Pad + qq
								if ix < 0 || ix >= xs.W {
									continue
								}
								dx[((n*c+cc)*xs.H+iy)*xs.W+ix] += float32(g * w[((kk*c+cc)*r+rr)*r+qq])
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Conv2DBackwardFilter computes dw given x and dy.
func Conv2DBackwardFilter(x []float32, xs TensorShape4, dy []float32, ys TensorShape4, r int, p ConvParams) []float32 {
	k := ys.C
	dw := make([]float32, k*xs.C*r*r)
	for n := 0; n < xs.N; n++ {
		for kk := 0; kk < k; kk++ {
			for oy := 0; oy < ys.H; oy++ {
				for ox := 0; ox < ys.W; ox++ {
					g := dy[((n*k+kk)*ys.H+oy)*ys.W+ox]
					for cc := 0; cc < xs.C; cc++ {
						for rr := 0; rr < r; rr++ {
							iy := oy*p.Stride - p.Pad + rr
							if iy < 0 || iy >= xs.H {
								continue
							}
							for qq := 0; qq < r; qq++ {
								ix := ox*p.Stride - p.Pad + qq
								if ix < 0 || ix >= xs.W {
									continue
								}
								dw[((kk*xs.C+cc)*r+rr)*r+qq] += float32(g * x[((n*xs.C+cc)*xs.H+iy)*xs.W+ix])
							}
						}
					}
				}
			}
		}
	}
	return dw
}

// Gemm computes C = alpha*A*B + beta*C for row-major A[M,K], B[K,N].
func Gemm(a, bm, cm []float32, m, n, k int, alpha, beta float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += float32(a[i*k+p] * bm[p*n+j])
			}
			cm[i*n+j] = float32(alpha*acc) + float32(beta*cm[i*n+j])
		}
	}
}

// GemvT computes y = alpha*Aᵀx + beta*y for row-major A[rows, cols].
func GemvT(a, x, y []float32, rows, cols int, alpha, beta float32) {
	for j := 0; j < cols; j++ {
		var acc float32
		for i := 0; i < rows; i++ {
			acc += float32(a[i*cols+j] * x[i])
		}
		y[j] = float32(alpha*acc) + float32(beta*y[j])
	}
}

// Im2Col expands a single image x[C,H,W] exactly like the GPU kernel.
func Im2Col(x []float32, c, h, w, r, s, oh, ow, stride, pad int) []float32 {
	out := make([]float32, c*r*s*oh*ow)
	i := 0
	for cc := 0; cc < c; cc++ {
		for rr := 0; rr < r; rr++ {
			for ss := 0; ss < s; ss++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy := oy*stride - pad + rr
						ix := ox*stride - pad + ss
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							out[i] = x[(cc*h+iy)*w+ix]
						}
						i++
					}
				}
			}
		}
	}
	return out
}

// MaxPoolForward pools x[N,C,H,W]; returns y and flat argmax indices.
func MaxPoolForward(x []float32, xs TensorShape4, win, stride int) ([]float32, []int32, TensorShape4) {
	oh := (xs.H-win)/stride + 1
	ow := (xs.W-win)/stride + 1
	ys := TensorShape4{N: xs.N, C: xs.C, H: oh, W: ow}
	y := make([]float32, ys.Count())
	idx := make([]int32, ys.Count())
	for n := 0; n < xs.N; n++ {
		for c := 0; c < xs.C; c++ {
			base := (n*xs.C + c) * xs.H * xs.W
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestI := 0
					for dy := 0; dy < win; dy++ {
						iy := oy*stride + dy
						if iy >= xs.H {
							continue
						}
						for dx := 0; dx < win; dx++ {
							ix := ox*stride + dx
							if ix >= xs.W {
								continue
							}
							v := x[base+iy*xs.W+ix]
							if v > best {
								best = v
								bestI = base + iy*xs.W + ix
							}
						}
					}
					o := ((n*xs.C+c)*oh+oy)*ow + ox
					y[o] = best
					idx[o] = int32(bestI)
				}
			}
		}
	}
	return y, idx, ys
}

// LRNForward computes cross-channel LRN over one image x[C, HW].
func LRNForward(x []float32, c, hw, win int, k, alpha, beta float32) []float32 {
	y := make([]float32, len(x))
	half := win / 2
	for cc := 0; cc < c; cc++ {
		for i := 0; i < hw; i++ {
			var sum float32
			for j := cc - half; j <= cc+half; j++ {
				if j < 0 || j >= c {
					continue
				}
				v := x[j*hw+i]
				sum += float32(v * v)
			}
			den := k + float32(alpha/float32(win)*sum)
			y[cc*hw+i] = x[cc*hw+i] / float32(math.Pow(float64(den), float64(beta)))
		}
	}
	return y
}

// Softmax computes row-wise softmax over x[rows, cols].
func Softmax(x []float32, rows, cols int) []float32 {
	y := make([]float32, len(x))
	for r := 0; r < rows; r++ {
		row := x[r*cols : (r+1)*cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			y[r*cols+j] = e
			sum += e
		}
		for j := range row {
			y[r*cols+j] /= sum
		}
	}
	return y
}

// Relu computes max(x, 0).
func Relu(x []float32) []float32 {
	y := make([]float32, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	return y
}

// AddBias adds bias[c] to every spatial position of channel c.
func AddBias(y []float32, bias []float32, n, c, spatial int) {
	for i := range y {
		ch := (i / spatial) % c
		y[i] += bias[ch]
	}
}

// Argmax returns the index of the max element of each row.
func Argmax(y []float32, rows, cols int) []int {
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best := y[r*cols]
		for j := 1; j < cols; j++ {
			if y[r*cols+j] > best {
				best = y[r*cols+j]
				out[r] = j
			}
		}
	}
	return out
}
