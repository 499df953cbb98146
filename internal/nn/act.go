package nn

import (
	"math/rand"

	"adaptivefl/internal/tensor"
)

// ReLU is max(0, x). With ClampAt > 0 it becomes the clipped variant
// min(max(0,x), ClampAt) — ReLU6 (ClampAt = 6) is MobileNetV2's activation.
type ReLU struct {
	ClampAt float64 // 0 means no upper clamp

	wsSlot
	in *tensor.Tensor // train-mode input, which decides where grad passes
}

// NewReLU returns a standard rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 returns the MobileNet-style clipped rectifier.
func NewReLU6() *ReLU { return &ReLU{ClampAt: 6} }

// Forward applies the rectifier element-wise. In evaluation mode it
// rectifies x in place and returns it.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		r.in = nil
		for i, v := range x.Data {
			if !(v > 0) {
				x.Data[i] = 0
			} else if r.ClampAt > 0 && v > r.ClampAt {
				x.Data[i] = r.ClampAt
			}
		}
		return x
	}
	r.in = x
	out := r.ws.Take(x.Shape...)
	for i, v := range x.Data {
		if !(v > 0) {
			v = 0
		} else if r.ClampAt > 0 && v > r.ClampAt {
			v = r.ClampAt
		}
		out.Data[i] = v
	}
	return out
}

// Backward zeroes gradient where the forward pass saturated: where the
// input was not positive, or above the clamp.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.ws.Take(grad.Shape...)
	for i, g := range grad.Data {
		if v := r.in.Data[i]; v > 0 && !(r.ClampAt > 0 && v > r.ClampAt) {
			out.Data[i] = g
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout). Evaluation is a no-op.
type Dropout struct {
	P   float64
	rng *rand.Rand

	wsSlot
	mask []bool
}

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies dropout in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.mask = d.mask[:0]
		return x
	}
	out := d.ws.Take(x.Shape...)
	if cap(d.mask) < len(out.Data) {
		d.mask = make([]bool, len(out.Data))
	}
	d.mask = d.mask[:len(out.Data)]
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			out.Data[i] = 0
			d.mask[i] = false
		} else {
			out.Data[i] = v * scale
			d.mask[i] = true
		}
	}
	return out
}

// Backward routes gradient only through surviving units.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) == 0 {
		return grad
	}
	out := d.ws.Take(grad.Shape...)
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		if d.mask[i] {
			out.Data[i] = g * scale
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
