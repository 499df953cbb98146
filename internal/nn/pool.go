package nn

import (
	"math"

	"adaptivefl/internal/tensor"
)

// MaxPool2D applies K×K max pooling with the given stride (no padding).
type MaxPool2D struct {
	K, Stride int

	wsSlot
	argmax  []int
	inShape []int
}

// NewMaxPool2D builds a max-pooling layer.
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Forward pools each window to its maximum and records the winner index.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, p.K, p.Stride, 0)
	ow := tensor.ConvOutSize(w, p.K, p.Stride, 0)
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := p.train(train).Take(n, c, oh, ow)
	if cap(p.argmax) < out.Numel() {
		p.argmax = make([]int, out.Numel())
	}
	p.argmax = p.argmax[:out.Numel()]
	idx := 0
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best, bestAt := math.Inf(-1), -1
					for ki := 0; ki < p.K; ki++ {
						ii := oi*p.Stride + ki
						if ii >= h {
							break
						}
						for kj := 0; kj < p.K; kj++ {
							jj := oj*p.Stride + kj
							if jj >= w {
								break
							}
							if v := x.Data[base+ii*w+jj]; v > best {
								best, bestAt = v, base+ii*w+jj
							}
						}
					}
					out.Data[idx] = best
					p.argmax[idx] = bestAt
					idx++
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to its window's argmax.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := p.ws.Zeros(p.inShape...)
	for i, at := range p.argmax {
		dx.Data[at] += grad.Data[i]
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel's spatial map to a single value,
// producing [N, C, 1, 1].
type GlobalAvgPool2D struct {
	wsSlot
	inShape []int
}

// NewGlobalAvgPool2D builds a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages over H×W.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := p.train(train).Take(n, c, 1, 1)
	spatial := h * w
	for i := 0; i < n*c; i++ {
		s := 0.0
		for j := 0; j < spatial; j++ {
			s += x.Data[i*spatial+j]
		}
		out.Data[i] = s / float64(spatial)
	}
	return out
}

// Backward spreads each gradient uniformly over its spatial map.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := p.ws.Take(p.inShape...)
	spatial := p.inShape[2] * p.inShape[3]
	inv := 1 / float64(spatial)
	for i := 0; i < p.inShape[0]*p.inShape[1]; i++ {
		g := grad.Data[i] * inv
		for j := 0; j < spatial; j++ {
			dx.Data[i*spatial+j] = g
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }

// AvgPool2D applies K×K average pooling with the given stride (no padding).
type AvgPool2D struct {
	K, Stride int

	wsSlot
	inShape []int
}

// NewAvgPool2D builds an average-pooling layer.
func NewAvgPool2D(k, stride int) *AvgPool2D { return &AvgPool2D{K: k, Stride: stride} }

// Forward pools each window to its mean.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, p.K, p.Stride, 0)
	ow := tensor.ConvOutSize(w, p.K, p.Stride, 0)
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := p.train(train).Take(n, c, oh, ow)
	inv := 1 / float64(p.K*p.K)
	idx := 0
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					acc := 0.0
					for ki := 0; ki < p.K; ki++ {
						for kj := 0; kj < p.K; kj++ {
							acc += x.Data[base+(oi*p.Stride+ki)*w+oj*p.Stride+kj]
						}
					}
					out.Data[idx] = acc * inv
					idx++
				}
			}
		}
	}
	return out
}

// Backward spreads gradient uniformly across each window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	oh := tensor.ConvOutSize(h, p.K, p.Stride, 0)
	ow := tensor.ConvOutSize(w, p.K, p.Stride, 0)
	dx := p.ws.Zeros(p.inShape...)
	inv := 1 / float64(p.K*p.K)
	idx := 0
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			base := (s*c + ch) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					g := grad.Data[idx] * inv
					idx++
					for ki := 0; ki < p.K; ki++ {
						for kj := 0; kj < p.K; kj++ {
							dx.Data[base+(oi*p.Stride+ki)*w+oj*p.Stride+kj] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns nil; pooling has no parameters.
func (p *AvgPool2D) Params() []*Param { return nil }
