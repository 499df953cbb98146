package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"adaptivefl/internal/tensor"
)

// Conv2D is a 2-D convolution with square kernels, implemented as
// im2col + GEMM over per-sample column blocks: each sample's [InC*K*K,
// OH*OW] block feeds one GEMM whose destination is a view straight into
// the [N, OutC, OH, OW] output, so no scatter copy reorders the result
// (and backward's gradient gather disappears symmetrically — the grad's
// per-sample [OutC, OH*OW] blocks are already GEMM-shaped). Per-element
// accumulation order matches the former whole-batch forward GEMM exactly
// (dot products over the same K·K·InC reduction), so forward results are
// bitwise unchanged. Weight layout is [OutC, InC, K, K]; input batches
// are [N, InC, H, W].
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	UseBias                   bool

	weight, bias *Param
	wsSlot

	// forward cache, retained only for train-mode forwards; eval-mode
	// forwards release it so inference does not pin the column buffer.
	in     *tensor.Tensor
	cols   *tensor.Tensor // im2col blocks [N, InC*K*K, OH*OW]
	oh, ow int

	// Reusable headers over slices of the layer's buffers, so the
	// per-sample loops allocate nothing: wm and dwm view the weight and
	// its gradient as [OutC, InC*K*K]; views holds one set per worker.
	wm, dwm tensor.Tensor
	views   []convViews
}

// convViews are one worker's per-sample headers.
type convViews struct {
	x, cols, out tensor.Tensor
}

// NewConv2D builds a convolution layer with He-initialised weights. The
// name prefixes the layer's parameter names ("<name>.weight").
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	fanIn := inC * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, UseBias: bias}
	c.weight = newParam(name+".weight", tensor.Randn(rng, std, outC, inC, k, k))
	if bias {
		c.bias = newParam(name+".bias", tensor.New(outC))
	}
	return c
}

// Bind makes the layer take its train-mode buffers from ws; nil unbinds.
// It drops the column cache the layer keeps while unbound, so no buffer
// is owned by both.
func (c *Conv2D) Bind(ws *tensor.Workspace) {
	c.ws = ws
	c.in, c.cols = nil, nil
}

// pointwise reports a 1×1, stride-1, unpadded convolution, whose im2col
// is the identity: each sample's [InC, H*W] input block is already its
// column block, so nothing is unfolded or cached, and Backward writes dX
// without folding it (Col2Im of a 1×1 block only adds it to zeros).
func (c *Conv2D) pointwise() bool { return c.K == 1 && c.Stride == 1 && c.Pad == 0 }

// Forward computes the convolution over a batch.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ci != c.InC {
		panic(fmt.Sprintf("nn: conv %s expects %d input channels, got %d", c.weight.Name, c.InC, ci))
	}
	c.oh = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.ow = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	spatial := c.oh * c.ow
	rows := c.InC * c.K * c.K

	ws := c.train(train)
	if train {
		switch {
		case c.pointwise():
			c.cols = nil
		case ws != nil:
			c.cols = ws.Take(n, rows, spatial)
		case c.cols == nil || c.cols.Shape[0] != n || c.cols.Shape[1] != rows || c.cols.Shape[2] != spatial:
			c.cols = tensor.New(n, rows, spatial)
		}
		c.in = x
	} else {
		c.in, c.cols = nil, nil
	}

	// One GEMM per sample, written straight into the sample's [OutC,
	// spatial] block of the output — the GEMM destination IS the final
	// layout, so nothing is scattered afterwards. Samples touch disjoint
	// cols and output blocks, so workers split them when available (each
	// element is still computed by exactly one fixed code path, so results
	// stay bitwise independent of the parallelism).
	c.wm.SetView(c.weight.Val.Data, c.OutC, rows)
	out := ws.Take(n, c.OutC, c.oh, c.ow)
	par := max(1, min(tensor.Parallelism(), n))
	for len(c.views) < par {
		c.views = append(c.views, convViews{})
	}
	if par == 1 {
		c.forwardSamples(x, out, 0, 1, train)
	} else {
		var wg sync.WaitGroup
		wg.Add(par - 1)
		for wk := 1; wk < par; wk++ {
			go func(wk int) {
				defer wg.Done()
				c.forwardSamples(x, out, wk, par, train)
			}(wk)
		}
		c.forwardSamples(x, out, 0, par, train)
		wg.Wait()
	}
	if c.UseBias {
		for s := 0; s < n; s++ {
			for o := 0; o < c.OutC; o++ {
				b := c.bias.Val.Data[o]
				dst := out.Data[(s*c.OutC+o)*spatial : (s*c.OutC+o+1)*spatial]
				for i := range dst {
					dst[i] += b
				}
			}
		}
	}
	return out
}

// forwardSamples convolves samples wk, wk+stride, … of x into out on
// worker wk's views. Train-mode forwards unfold each sample into its block
// of the cached cols; eval-mode forwards reuse one pooled scratch block; a
// pointwise conv reads the sample's input block as it is.
func (c *Conv2D) forwardSamples(x, out *tensor.Tensor, wk, stride int, train bool) {
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	spatial := c.oh * c.ow
	rows := c.InC * c.K * c.K
	v := &c.views[wk]
	var scratch *tensor.Tensor
	if !train && !c.pointwise() {
		scratch = tensor.GetScratch(rows, spatial)
		defer tensor.PutScratch(scratch)
	}
	for s := wk; s < n; s += stride {
		xS := x.Data[s*ci*h*w : (s+1)*ci*h*w]
		cols := scratch
		switch {
		case c.pointwise():
			cols = v.cols.SetView(xS, rows, spatial)
		case train:
			cols = v.cols.SetView(c.cols.Data[s*rows*spatial:(s+1)*rows*spatial], rows, spatial)
		}
		if !c.pointwise() {
			tensor.Im2Col(v.x.SetView(xS, ci, h, w), c.K, c.K, c.Stride, c.Pad, cols)
		}
		v.out.SetView(out.Data[s*c.OutC*spatial:(s+1)*c.OutC*spatial], c.OutC, spatial)
		tensor.Gemm(false, false, 1, &c.wm, cols, 0, &v.out)
	}
}

// Backward accumulates dW (and db) and returns dX. The grad's per-sample
// [OutC, spatial] blocks are used as GEMM operands in place — the layout
// Forward writes is exactly the layout backward needs, so the former
// [OutC, N*spatial] gather buffer is gone.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.in == nil || (c.cols == nil && !c.pointwise()) {
		panic(fmt.Sprintf("nn: conv %s Backward without a train-mode Forward", c.weight.Name))
	}
	n := grad.Shape[0]
	spatial := c.oh * c.ow
	rows := c.InC * c.K * c.K
	h, w := c.in.Shape[2], c.in.Shape[3]

	c.dwm.SetView(c.weight.Grad.Data, c.OutC, rows)
	c.wm.SetView(c.weight.Val.Data, c.OutC, rows)
	dx := c.ws.Take(n, c.InC, h, w) // every sample's plane is overwritten
	cols := c.cols
	var dcols *tensor.Tensor
	switch {
	case c.pointwise():
		cols = c.in
	case c.ws != nil:
		dcols = c.ws.Take(rows, spatial)
	default:
		dcols = tensor.GetScratch(rows, spatial)
		defer tensor.PutScratch(dcols)
	}
	v := &c.views[0]
	for s := 0; s < n; s++ {
		gS := v.out.SetView(grad.Data[s*c.OutC*spatial:(s+1)*c.OutC*spatial], c.OutC, spatial)
		colsS := v.cols.SetView(cols.Data[s*rows*spatial:(s+1)*rows*spatial], rows, spatial)
		// dW += g_s · cols_sᵀ
		tensor.Gemm(false, true, 1, gS, colsS, 1, &c.dwm)
		// dcols_s = Wᵀ · g_s, folded back into the sample's dX plane.
		dxS := dx.Data[s*c.InC*h*w : (s+1)*c.InC*h*w]
		if c.pointwise() {
			tensor.Gemm(true, false, 1, &c.wm, gS, 0, v.x.SetView(dxS, rows, spatial))
		} else {
			tensor.Gemm(true, false, 1, &c.wm, gS, 0, dcols)
			tensor.Col2Im(dcols, c.InC, h, w, c.K, c.K, c.Stride, c.Pad, v.x.SetView(dxS, c.InC, h, w))
		}
		if c.UseBias {
			for o := 0; o < c.OutC; o++ {
				row := gS.Data[o*spatial : (o+1)*spatial]
				acc := 0.0
				for _, v := range row {
					acc += v
				}
				c.bias.Grad.Data[o] += acc
			}
		}
	}
	return dx
}

// Params returns the weight (and bias) parameters.
func (c *Conv2D) Params() []*Param {
	if c.UseBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// DepthwiseConv2D applies one K×K filter per channel (groups == channels),
// the building block of MobileNetV2. Weight layout is [C, 1, K, K].
// Each (sample, channel) plane is convolved tap-by-tap over row-contiguous
// slices: the kernel taps form the outer loops and the inner loop runs
// along output rows with the bounds hoisted, instead of a 6-deep scalar
// loop with per-element padding branches.
type DepthwiseConv2D struct {
	C, K, Stride, Pad int
	UseBias           bool

	weight, bias *Param
	wsSlot
	in     *tensor.Tensor
	oh, ow int
}

// NewDepthwiseConv2D builds a depthwise convolution layer.
func NewDepthwiseConv2D(rng *rand.Rand, name string, c, k, stride, pad int, bias bool) *DepthwiseConv2D {
	std := math.Sqrt(2.0 / float64(k*k))
	d := &DepthwiseConv2D{C: c, K: k, Stride: stride, Pad: pad, UseBias: bias}
	d.weight = newParam(name+".weight", tensor.Randn(rng, std, c, 1, k, k))
	if bias {
		d.bias = newParam(name+".bias", tensor.New(c))
	}
	return d
}

// tapRange returns the output index range [lo,hi) along one axis for which
// the input index oi*stride - pad + k stays inside [0, in).
func tapRange(k, stride, pad, in, out int) (lo, hi int) {
	lo = 0
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	hi = out
	if m := (in - 1 + pad - k) / stride; m+1 < hi {
		hi = m + 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Forward computes the per-channel convolution.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != d.C {
		panic(fmt.Sprintf("nn: depthwise %s expects %d channels, got %d", d.weight.Name, d.C, c))
	}
	if train {
		d.in = x
	} else {
		d.in = nil
	}
	d.oh = tensor.ConvOutSize(h, d.K, d.Stride, d.Pad)
	d.ow = tensor.ConvOutSize(w, d.K, d.Stride, d.Pad)
	out := d.train(train).Take(n, c, d.oh, d.ow)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := x.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			ker := d.weight.Val.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			yOut := out.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			// The taps accumulate into yOut, which starts at the bias.
			b := 0.0
			if d.UseBias {
				b = d.bias.Val.Data[ch]
			}
			for i := range yOut {
				yOut[i] = b
			}
			for ki := 0; ki < d.K; ki++ {
				oiLo, oiHi := tapRange(ki, d.Stride, d.Pad, h, d.oh)
				for kj := 0; kj < d.K; kj++ {
					kv := ker[ki*d.K+kj]
					ojLo, ojHi := tapRange(kj, d.Stride, d.Pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.Stride - d.Pad + ki
						yRow := yOut[oi*d.ow : (oi+1)*d.ow]
						if d.Stride == 1 {
							xSeg := xIn[ii*w+ojLo+kj-d.Pad : ii*w+ojHi+kj-d.Pad]
							ySeg := yRow[ojLo:ojHi]
							for j, v := range xSeg {
								ySeg[j] += kv * v
							}
							continue
						}
						jj := ojLo*d.Stride - d.Pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							yRow[oj] += kv * xIn[ii*w+jj]
							jj += d.Stride
						}
					}
				}
			}
		}
	}
	return out
}

// Backward accumulates per-channel filter gradients and returns dX.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.in == nil {
		panic(fmt.Sprintf("nn: depthwise %s Backward without a train-mode Forward", d.weight.Name))
	}
	n, c := grad.Shape[0], grad.Shape[1]
	h, w := d.in.Shape[2], d.in.Shape[3]
	dx := d.ws.Take(n, c, h, w)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := d.in.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			g := grad.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			ker := d.weight.Val.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			dker := d.weight.Grad.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			dxs := dx.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			clear(dxs) // the taps accumulate into it
			for ki := 0; ki < d.K; ki++ {
				oiLo, oiHi := tapRange(ki, d.Stride, d.Pad, h, d.oh)
				for kj := 0; kj < d.K; kj++ {
					kv := ker[ki*d.K+kj]
					ojLo, ojHi := tapRange(kj, d.Stride, d.Pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					acc := 0.0
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.Stride - d.Pad + ki
						gRow := g[oi*d.ow : (oi+1)*d.ow]
						if d.Stride == 1 {
							off := ii*w + kj - d.Pad
							xSeg := xIn[off+ojLo : off+ojHi]
							dxSeg := dxs[off+ojLo : off+ojHi]
							gSeg := gRow[ojLo:ojHi]
							for j, gv := range gSeg {
								acc += gv * xSeg[j]
								dxSeg[j] += gv * kv
							}
							continue
						}
						jj := ojLo*d.Stride - d.Pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							gv := gRow[oj]
							acc += gv * xIn[ii*w+jj]
							dxs[ii*w+jj] += gv * kv
							jj += d.Stride
						}
					}
					dker[ki*d.K+kj] += acc
				}
			}
			if d.UseBias {
				s := 0.0
				for _, v := range g {
					s += v
				}
				d.bias.Grad.Data[ch] += s
			}
		}
	}
	return dx
}

// Params returns the weight (and bias) parameters.
func (d *DepthwiseConv2D) Params() []*Param {
	if d.UseBias {
		return []*Param{d.weight, d.bias}
	}
	return []*Param{d.weight}
}
