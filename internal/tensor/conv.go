package tensor

// ConvOutSize returns the spatial output size of a convolution or pooling
// window: floor((in + 2*pad - kernel)/stride) + 1.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColBatch unfolds a batch x of shape [N,C,H,W] into a matrix of shape
// [C*kh*kw, N*oh*ow] so that the convolution over the whole batch becomes
// a single GEMM. Sample s occupies columns [s*oh*ow, (s+1)*oh*ow). Out-of-
// bounds taps (padding) contribute zeros. The result is written into cols,
// which must have shape [C*kh*kw, N*oh*ow]. Stride-1 rows are bulk-copied.
func Im2ColBatch(x *Tensor, kh, kw, stride, pad int, cols *Tensor) {
	im2col(x.Data, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], kh, kw, stride, pad, cols)
}

// im2col is Im2ColBatch over the raw data of an [n,c,h,w] batch.
func im2col(xd []float64, n, c, h, w, kh, kw, stride, pad int, cols *Tensor) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	total := n * oh * ow
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != total {
		panic("tensor: Im2ColBatch cols shape mismatch")
	}
	cd := cols.Data
	row := 0
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				out := cd[row*total : (row+1)*total]
				for s := 0; s < n; s++ {
					base := (s*c + ch) * h * w
					seg := out[s*oh*ow : (s+1)*oh*ow]
					idx := 0
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							for j := 0; j < ow; j++ {
								seg[idx+j] = 0
							}
							idx += ow
							continue
						}
						rowBase := base + ii*w
						if stride == 1 {
							jj := kj - pad // input column under oj=0
							lo, hi := clipWindow(jj, ow, w)
							for j := 0; j < lo; j++ {
								seg[idx+j] = 0
							}
							if hi > lo {
								copy(seg[idx+lo:idx+hi], xd[rowBase+jj+lo:rowBase+jj+hi])
							}
							for j := hi; j < ow; j++ {
								seg[idx+j] = 0
							}
							idx += ow
							continue
						}
						jj := -pad + kj
						for oj := 0; oj < ow; oj++ {
							if jj >= 0 && jj < w {
								seg[idx] = xd[rowBase+jj]
							} else {
								seg[idx] = 0
							}
							idx++
							jj += stride
						}
					}
				}
				row++
			}
		}
	}
}

// Col2ImBatch folds cols of shape [C*kh*kw, N*oh*ow] back into a batch
// gradient of shape [N,C,H,W], accumulating overlapping taps. dst is
// zeroed first.
func Col2ImBatch(cols *Tensor, c, h, w, kh, kw, stride, pad int, dst *Tensor) {
	if dst.Shape[1] != c || dst.Shape[2] != h || dst.Shape[3] != w {
		panic("tensor: Col2ImBatch dst shape mismatch")
	}
	col2im(cols, dst.Shape[0], c, h, w, kh, kw, stride, pad, dst.Data)
}

// col2im is Col2ImBatch into the raw data of an [n,c,h,w] batch.
func col2im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int, dd []float64) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	total := n * oh * ow
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != total {
		panic("tensor: Col2ImBatch cols shape mismatch")
	}
	if len(dd) != n*c*h*w {
		panic("tensor: Col2ImBatch dst shape mismatch")
	}
	clear(dd)
	cd := cols.Data
	row := 0
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				in := cd[row*total : (row+1)*total]
				for s := 0; s < n; s++ {
					base := (s*c + ch) * h * w
					seg := in[s*oh*ow : (s+1)*oh*ow]
					idx := 0
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							idx += ow
							continue
						}
						rowBase := base + ii*w
						if stride == 1 {
							jj := kj - pad
							lo, hi := clipWindow(jj, ow, w)
							if hi > lo {
								drow := dd[rowBase+jj+lo : rowBase+jj+hi]
								srow := seg[idx+lo : idx+hi]
								for j, v := range srow {
									drow[j] += v
								}
							}
							idx += ow
							continue
						}
						jj := -pad + kj
						for oj := 0; oj < ow; oj++ {
							if jj >= 0 && jj < w {
								dd[rowBase+jj] += seg[idx]
							}
							idx++
							jj += stride
						}
					}
				}
				row++
			}
		}
	}
}

// clipWindow returns the sub-range [lo,hi) of a length-ow stride-1 window
// whose input column off+j stays inside [0,w).
func clipWindow(off, ow, w int) (lo, hi int) {
	lo, hi = 0, ow
	if off < 0 {
		lo = -off
	}
	if off+ow > w {
		hi = w - off
	}
	if lo > ow {
		lo = ow
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Im2Col unfolds a single image x of shape [C,H,W] into a matrix of shape
// [C*kh*kw, oh*ow]. It is the N==1 special case of Im2ColBatch.
func Im2Col(x *Tensor, kh, kw, stride, pad int, cols *Tensor) {
	im2col(x.Data, 1, x.Shape[0], x.Shape[1], x.Shape[2], kh, kw, stride, pad, cols)
}

// Col2Im folds cols of shape [C*kh*kw, oh*ow] back into an image gradient
// of shape [C,H,W], accumulating overlapping taps. dst is zeroed first. It
// is the N==1 special case of Col2ImBatch.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int, dst *Tensor) {
	col2im(cols, 1, c, h, w, kh, kw, stride, pad, dst.Data)
}
