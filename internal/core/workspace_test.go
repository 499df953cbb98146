package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
)

// workspaceArchs are the three families at test scale. ResNet18 always
// has projection shortcuts (its later stages stride 2).
var workspaceArchs = []models.Config{
	{Arch: models.MobileNetV2, NumClasses: 4, WidthScale: 0.0625, Seed: 5},
	{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.0625, Seed: 5},
	{Arch: models.VGG16, NumClasses: 4, WidthScale: 0.05, Seed: 5},
}

// workspaceData is a 20-sample shard, which batch size 8 splits 8+8+4,
// and a 24-sample test set.
func workspaceData() (train, test *data.Dataset) {
	return data.Generate(data.SynthConfig{Name: "g", Classes: 4, Channels: 3, Size: 32,
		Train: 20, Test: 24, Noise: 0.3, MaxShift: 1, Seed: 31})
}

var workspaceTrain = TrainConfig{LocalEpochs: 2, BatchSize: 8, LR: 0.05, Momentum: 0.5}

// trainUnbound is TrainLocal's loop on a freshly built model that has no
// workspace: every activation and gradient is a fresh allocation.
func trainUnbound(t *testing.T, mcfg models.Config, widths []int, st nn.State, ds *data.Dataset, tc TrainConfig, seed int64) nn.State {
	t.Helper()
	model, err := models.Build(mcfg, widths)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := prune.ExtractForModel(st, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(model, sliced); err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(tc.LR, tc.Momentum, tc.WeightDecay)
	rng := rand.New(rand.NewSource(seed))
	for epoch := 0; epoch < tc.LocalEpochs; epoch++ {
		for _, batch := range ds.Batches(rng, tc.BatchSize) {
			x, labels := ds.Gather(batch)
			nn.ZeroGrads(model)
			_, grad := nn.CrossEntropy(model.Forward(x, true), labels)
			model.Backward(grad)
			opt.Step(model.Params())
		}
	}
	return nn.StateDict(model)
}

// TestWorkspaceBitIdentical pins the training workspace's contract:
// training through an arena, whose models take every train-mode buffer
// from one shared workspace, is bit-identical to training a fresh unbound
// model. Widths are interleaved (full, smallest, full, largest non-full)
// so one arena's workspace serves differently shaped steps in turn, and
// the shard ends in a short batch.
func TestWorkspaceBitIdentical(t *testing.T) {
	train, _ := workspaceData()
	for _, mcfg := range workspaceArchs {
		t.Run(string(mcfg.Arch), func(t *testing.T) {
			global := nn.StateDict(models.MustBuild(mcfg, nil))
			pool, err := prune.BuildPool(mcfg, prune.Config{P: 2})
			if err != nil {
				t.Fatal(err)
			}
			small, large := pool.Smallest(), pool.Members[len(pool.Members)-2]
			for i, widths := range [][]int{nil, small.Widths, nil, large.Widths} {
				seed := int64(11 + i)
				want := trainUnbound(t, mcfg, widths, global, train, workspaceTrain, seed)
				got, err := TrainLocal(mcfg, widths, global, train, workspaceTrain, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if hw, hg := nn.HashState(want), nn.HashState(got); hw != hg {
					t.Fatalf("step %d widths %v: arena state %#x, unbound %#x", i, widths, hg, hw)
				}
			}
		})
	}
}

// TestTrainLocalStepAllocs bounds the allocations of one warmed training
// step inside TrainLocal: the difference between a three-batch and a
// one-batch call, per batch, so the per-dispatch state copies cancel out.
// What a bound step still allocates is per step, not per buffer: the
// batch gather, the loss, the shuffle and the conv and GEMM worker
// closures. Unbound, every layer output and input gradient adds to it.
func TestTrainLocalStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	mcfg := workspaceArchs[0]
	train, _ := workspaceData()
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	allocs := func(epochs int) float64 {
		tc := TrainConfig{LocalEpochs: epochs, BatchSize: train.Len(), LR: 0.05, Momentum: 0.5}
		run := func() {
			if _, err := TrainLocal(mcfg, nil, global, train, tc, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
		}
		run()
		// AllocsPerRun counts every goroutine's allocations, so work a
		// previous test left running can only inflate it: keep the least.
		least := testing.AllocsPerRun(3, run)
		for i := 0; i < 2; i++ {
			least = min(least, testing.AllocsPerRun(3, run))
		}
		return least
	}
	perStep := (allocs(3) - allocs(1)) / 2
	const ceiling = 400
	if perStep > ceiling {
		t.Fatalf("a warmed TrainLocal step allocates %.0f times; ceiling %d", perStep, ceiling)
	}
	t.Logf("warmed TrainLocal step: %.0f allocations (ceiling %d)", perStep, ceiling)
}

// TestArenaPoolBound checks that the idle-arena free list never holds
// more than GOMAXPROCS arenas, however many trainings ran at once.
func TestArenaPoolBound(t *testing.T) {
	mcfg := workspaceArchs[0]
	train, _ := workspaceData()
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	tc := TrainConfig{LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.5}
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, 4*procs)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = TrainLocal(mcfg, nil, global, train, tc, rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	arenaPool.mu.Lock()
	idle := len(arenaPool.free)
	arenaPool.mu.Unlock()
	if idle < 1 || idle > procs {
		t.Fatalf("%d idle arenas after %d concurrent trainings; want 1..%d", idle, len(errs), procs)
	}
}

// TestEvalGolden pins training and evaluation to values captured before
// the workspace change: per family, the trained state hash, eval.Accuracy
// on the test set and a hash of its eval-mode logits (whose ReLU and
// BatchNorm now work in place).
func TestEvalGolden(t *testing.T) {
	golden := map[models.Arch]struct {
		state  uint64
		acc    float64
		logits uint64
	}{
		models.MobileNetV2: {0x35567434c55dd094, 0.375, 0xceaf6780582a88d3},
		models.ResNet18:    {0xc192c77a3afaaf62, 0.375, 0x8dcb345d68058813},
		models.VGG16:       {0x0b12816822445109, 0.25, 0x8ef17d3a12561ddc},
	}
	train, test := workspaceData()
	for _, mcfg := range workspaceArchs {
		want := golden[mcfg.Arch]
		global := nn.StateDict(models.MustBuild(mcfg, nil))
		st, err := TrainLocal(mcfg, nil, global, train, workspaceTrain, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if h := nn.HashState(st); h != want.state {
			t.Errorf("%s: trained state %#x, golden %#x", mcfg.Arch, h, want.state)
		}
		m := models.MustBuild(mcfg, nil)
		if err := nn.LoadState(m, st); err != nil {
			t.Fatal(err)
		}
		if acc := eval.Accuracy(m, test, 10); acc != want.acc {
			t.Errorf("%s: accuracy %v, golden %v", mcfg.Arch, acc, want.acc)
		}
		h := fnv.New64a()
		var buf [8]byte
		for lo := 0; lo < test.Len(); lo += 10 {
			idx := make([]int, 0, 10)
			for i := lo; i < lo+10 && i < test.Len(); i++ {
				idx = append(idx, i)
			}
			x, _ := test.Gather(idx)
			for _, v := range m.Forward(x, false).Data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != want.logits {
			t.Errorf("%s: logits hash %#x, golden %#x", mcfg.Arch, got, want.logits)
		}
	}
}
