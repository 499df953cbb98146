package models

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// resnetStageWidths are the four stage widths of ResNet18 (CIFAR stem).
var resnetStageWidths = []int{64, 128, 256, 512}

// resnetSpec exposes 4 width units — one per stage (the stem shares stage
// 1's width so identity shortcuts stay valid). Pruning boundaries fall on
// stage boundaries, where the full model already has 1×1 projection
// shortcuts, so every submodel remains a prefix slice of the full model.
// I ∈ {1,2,3} with τ = 1 plays the role Table 1's {4,6,8} plays for VGG16.
func resnetSpec(cfg Config) Spec {
	full := make([]int, len(resnetStageWidths))
	for i, w := range resnetStageWidths {
		full[i] = scaleWidth(w, cfg.WidthScale)
	}
	return Spec{FullWidths: full, Tau: 1, IChoices: []int{1, 2, 3}}
}

// basicBlock is the ResNet-18 residual block: two 3×3 conv+BN with an
// identity or 1×1-projection shortcut. Projection existence is decided by
// the *full-width* architecture, so a pruned model never introduces
// parameters the full model lacks.
type basicBlock struct {
	conv1, conv2 *nn.Conv2D
	bn1, bn2     *nn.BatchNorm2D
	relu1, relu2 *nn.ReLU
	proj         *nn.Conv2D
	projBN       *nn.BatchNorm2D

	shortcutIn *tensor.Tensor
}

func newBasicBlock(rng *rand.Rand, name string, in, out, stride int, hasProj bool) *basicBlock {
	b := &basicBlock{
		conv1: nn.NewConv2D(rng, name+".conv1", in, out, 3, stride, 1, false),
		bn1:   nn.NewBatchNorm2D(name+".bn1", out),
		relu1: nn.NewReLU(),
		conv2: nn.NewConv2D(rng, name+".conv2", out, out, 3, 1, 1, false),
		bn2:   nn.NewBatchNorm2D(name+".bn2", out),
		relu2: nn.NewReLU(),
	}
	if hasProj {
		b.proj = nn.NewConv2D(rng, name+".proj", in, out, 1, stride, 0, false)
		b.projBN = nn.NewBatchNorm2D(name+".projbn", out)
	}
	return b
}

func (b *basicBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b.shortcutIn = x
	y := b.conv1.Forward(x, train)
	y = b.bn1.Forward(y, train)
	y = b.relu1.Forward(y, train)
	y = b.conv2.Forward(y, train)
	y = b.bn2.Forward(y, train)
	var sc *tensor.Tensor
	if b.proj != nil {
		sc = b.proj.Forward(x, train)
		sc = b.projBN.Forward(sc, train)
	} else {
		sc = x
	}
	y.AddInPlace(sc)
	return b.relu2.Forward(y, train)
}

func (b *basicBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.relu2.Backward(grad)
	// Residual branch.
	gb := b.bn2.Backward(g)
	gb = b.conv2.Backward(gb)
	gb = b.relu1.Backward(gb)
	gb = b.bn1.Backward(gb)
	dx := b.conv1.Backward(gb)
	// Shortcut branch.
	if b.proj != nil {
		gs := b.projBN.Backward(g)
		gs = b.proj.Backward(gs)
		dx.AddInPlace(gs)
	} else {
		dx.AddInPlace(g)
	}
	return dx
}

func (b *basicBlock) sublayers() []nn.Layer {
	ls := []nn.Layer{b.conv1, b.bn1, b.relu1, b.conv2, b.bn2, b.relu2}
	if b.proj != nil {
		ls = append(ls, b.proj, b.projBN)
	}
	return ls
}

func (b *basicBlock) Params() []*nn.Param {
	ps := append(b.conv1.Params(), b.bn1.Params()...)
	ps = append(ps, b.conv2.Params()...)
	ps = append(ps, b.bn2.Params()...)
	if b.proj != nil {
		ps = append(ps, b.proj.Params()...)
		ps = append(ps, b.projBN.Params()...)
	}
	return ps
}

// countMACs implements the stats walker interface for residual blocks.
func (b *basicBlock) countMACs(spatial int) (int64, int) {
	macs, sz := convMACs(b.conv1, spatial)
	m2, sz2 := convMACs(b.conv2, sz)
	macs += m2
	if b.proj != nil {
		mp, _ := convMACs(b.proj, spatial)
		macs += mp
	}
	return macs, sz2
}

func buildResNet(rng *rand.Rand, cfg Config, spec Spec, widths []int) *Model {
	m := &Model{Cfg: cfg, Widths: append([]int(nil), widths...)}
	w1 := widths[0]
	m.Layers = append(m.Layers,
		nn.NewConv2D(rng, "stem.conv", cfg.InChannels, w1, 3, 1, 1, false),
		nn.NewBatchNorm2D("stem.bn", w1),
		nn.NewReLU(),
	)
	spatial := cfg.InputSize
	in := w1
	for stage := 0; stage < 4; stage++ {
		out := widths[stage]
		fullIn, fullOut := 0, spec.FullWidths[stage]
		if stage == 0 {
			fullIn = spec.FullWidths[0]
		} else {
			fullIn = spec.FullWidths[stage-1]
		}
		stride := 1
		if stage > 0 {
			stride = 2
		}
		hasProj := stride != 1 || fullIn != fullOut
		m.Layers = append(m.Layers,
			newBasicBlock(rng, fmt.Sprintf("stage%d.block1", stage+1), in, out, stride, hasProj),
			newBasicBlock(rng, fmt.Sprintf("stage%d.block2", stage+1), out, out, 1, false),
		)
		if stride == 2 {
			spatial = tensor.ConvOutSize(spatial, 3, 2, 1)
		}
		in = out
		m.Exits = append(m.Exits, ExitPoint{LayerIdx: len(m.Layers) - 1, Channels: out, Spatial: spatial})
	}
	m.Layers = append(m.Layers,
		nn.NewGlobalAvgPool2D(),
		nn.NewFlatten(),
		nn.NewLinear(rng, "classifier.fc", in, cfg.NumClasses, true),
	)
	return m
}
