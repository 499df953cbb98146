// Package nn implements the training substrate AdaptiveFL runs on: neural
// network layers with hand-written forward/backward passes, losses, and an
// SGD optimizer — all on internal/tensor. Every layer's gradient is
// validated against finite differences in the package tests.
//
// Layers operate on batches: convolutional layers take [N,C,H,W] tensors,
// dense layers take [N,F]. A layer caches whatever its Backward pass needs
// during Forward, so the usual usage is strictly
// Forward → Backward → optimizer step.
//
// Buffer ownership. A tensor a layer returns belongs to that layer: a
// train-mode output, or a gradient from Backward, is valid until the
// layer's next Forward or Backward. A layer bound to a tensor.Workspace
// by its Bind method takes its train-mode outputs, input gradients and
// backward caches from the workspace, and they stay valid until the
// workspace's next Reset; an unbound layer allocates them. In evaluation mode ReLU
// and BatchNorm2D write their result over their input and return it, so
// a caller that still needs an eval-mode input must pass a copy. A caller
// may modify a returned tensor in place (a residual add does) until it
// hands it to another layer: layers read their train-mode input again in
// Backward, so it must not change in between.
package nn

import (
	"fmt"
	"sort"

	"adaptivefl/internal/tensor"
)

// Param is a named, trainable (or buffer) tensor attached to a layer.
// Names are stable across model reconstructions at different widths, which
// is what lets AdaptiveFL slice and aggregate heterogeneous submodels.
type Param struct {
	Name string
	Val  *tensor.Tensor
	Grad *tensor.Tensor
	// Buffer marks non-trainable state (e.g. BatchNorm running statistics):
	// it is carried in state dicts and aggregated across clients, but the
	// optimizer never touches it.
	Buffer bool
}

func newParam(name string, val *tensor.Tensor) *Param {
	return &Param{Name: name, Val: val, Grad: tensor.New(val.Shape...)}
}

func newBuffer(name string, val *tensor.Tensor) *Param {
	return &Param{Name: name, Val: val, Buffer: true}
}

// Layer is a differentiable module. Forward consumes a batch and returns
// the output batch; Backward consumes dLoss/dOutput and returns
// dLoss/dInput, accumulating parameter gradients along the way.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// wsSlot holds the workspace binding of a layer that embeds it.
type wsSlot struct {
	ws *tensor.Workspace
}

// Bind makes the layer take its train-mode buffers from ws; nil unbinds.
func (s *wsSlot) Bind(ws *tensor.Workspace) { s.ws = ws }

// train returns the workspace train-mode buffers come from: the bound one
// in training, nil (fresh allocations) in evaluation.
func (s *wsSlot) train(train bool) *tensor.Workspace {
	if train {
		return s.ws
	}
	return nil
}

// Sequential chains layers. It implements Layer.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Append adds more layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.Layers = append(s.Layers, layers...) }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// State is a named snapshot of parameter values — the wire format FL
// exchanges between server and clients.
type State map[string]*tensor.Tensor

// StateDict deep-copies every parameter (and buffer) of l into a State.
func StateDict(l Layer) State {
	st := make(State)
	for _, p := range l.Params() {
		if _, dup := st[p.Name]; dup {
			panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
		}
		st[p.Name] = p.Val.Clone()
	}
	return st
}

// LoadState copies values from st into l's parameters by name. Every
// parameter of l must be present with an identical shape; extra entries in
// st are ignored (they belong to larger variants of the model).
func LoadState(l Layer, st State) error {
	for _, p := range l.Params() {
		v, ok := st[p.Name]
		if !ok {
			return fmt.Errorf("nn: state missing parameter %q", p.Name)
		}
		if !tensor.SameShape(v, p.Val) {
			return fmt.Errorf("nn: parameter %q shape %v != model shape %v", p.Name, v.Shape, p.Val.Shape)
		}
		copy(p.Val.Data, v.Data)
	}
	return nil
}

// Clone deep-copies a State.
func (st State) Clone() State {
	c := make(State, len(st))
	for k, v := range st {
		c[k] = v.Clone()
	}
	return c
}

// Names returns the sorted parameter names in st.
func (st State) Names() []string {
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// NumParams returns the total element count across all tensors in st.
func (st State) NumParams() int {
	n := 0
	for _, v := range st {
		n += v.Numel()
	}
	return n
}

// ZeroGrads clears the gradient of every trainable parameter of l.
func ZeroGrads(l Layer) {
	ZeroGradParams(l.Params())
}

// ZeroGradParams clears the gradients of a pre-collected parameter slice,
// for hot loops that hoist Params() out of the per-batch path.
func ZeroGradParams(params []*Param) {
	for _, p := range params {
		if !p.Buffer {
			p.Grad.Zero()
		}
	}
}
