package tensor

// Workspace is a per-step bump allocator for training buffers.
//
// A training step allocates the same sequence of activations, input
// gradients and backward caches every time it runs; a Workspace hands
// them out from one slab and takes them all back at Reset, so a step in
// steady state allocates nothing. Buffers taken from a Workspace are
// valid until the next Reset. Contents are undefined: Take is for
// buffers the caller overwrites completely, Zeros for buffers it
// accumulates into.
//
// A nil *Workspace is valid and allocates a fresh zero-filled tensor on
// every Take or Zeros, so code written against a Workspace runs unchanged
// without one. A Workspace is not safe for concurrent use.
type Workspace struct {
	slab  []float64 // backing store; a step fits in it after the first
	off   int       // elements of slab handed out since Reset
	need  int       // elements requested since Reset, including spills
	heads []*Tensor // tensor headers, recycled across steps
	used  int       // headers handed out since Reset
}

// NewWorkspace returns an empty workspace. It sizes itself on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Take returns a tensor of the given shape whose contents are undefined.
// On a nil Workspace it returns New(shape...).
func (w *Workspace) Take(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in Workspace.Take")
		}
		n *= d
	}
	if w == nil {
		// Not New(shape...): its error path formats shape, which would
		// make every caller's variadic slice escape to the heap.
		return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
	}
	var data []float64
	if w.off+n <= len(w.slab) {
		data = w.slab[w.off : w.off+n : w.off+n]
		w.off += n
	} else {
		// The slab is too small for this step: serve the buffer from the
		// heap and let Reset grow the slab to the step's full size.
		data = make([]float64, n)
	}
	w.need += n
	if w.used == len(w.heads) {
		w.heads = append(w.heads, &Tensor{})
	}
	t := w.heads[w.used]
	w.used++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// Zeros returns a zero-filled tensor of the given shape.
func (w *Workspace) Zeros(shape ...int) *Tensor {
	t := w.Take(shape...)
	if w != nil {
		clear(t.Data)
	}
	return t
}

// Reset returns every buffer taken since the previous Reset. If the step
// outgrew the slab, the slab is regrown to the step's total, so a
// workspace shared by several models retains one largest step.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.need > len(w.slab) {
		// Layers keep headers from earlier steps in their caches; drop the
		// headers' hold on the spilled buffers and the old slab, or those
		// would stay reachable next to the new slab.
		for _, t := range w.heads {
			t.Data = nil
		}
		w.slab = make([]float64, w.need)
	}
	w.off, w.need, w.used = 0, 0, 0
}

// SetView points t at data with the given shape, reusing t's header and
// shape storage, so a loop over the slices of a buffer can re-aim one
// header instead of allocating a FromSlice per slice. It panics if
// len(data) does not match the shape. It returns t.
func (t *Tensor) SetView(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic("tensor: SetView shape does not match data length")
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}
