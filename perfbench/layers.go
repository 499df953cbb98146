package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/wire"
)

// layerMetrics reports the per-layer metrics taken from the traced run's
// spans, and prints where each commit's wall time went.
func layerMetrics(rep *report, wl workload, e env, w window, spans []span) {
	commits := float64(w.commits)
	inWindow := func(sp span) bool { return sp.Start >= w.start && sp.End <= w.end }
	durs := map[string][]float64{} // ms, spans wholly inside the window
	var popCalls, popMisses float64
	var popMissMs []float64
	var transport []float64
	byID := func(id int) span { return spans[id-1] }
	for _, sp := range spans {
		if !inWindow(sp) {
			continue
		}
		ms := float64(sp.End-sp.Start) / 1e6
		durs[sp.Name] = append(durs[sp.Name], ms)
		switch sp.Name {
		case spanPop:
			popCalls++
			if sp.Tag == 1 {
				popMisses++
				popMissMs = append(popMissMs, ms)
			}
		case spanAgent:
			if sp.Parent > 0 && byID(sp.Parent).Name == spanRTT {
				rtt := byID(sp.Parent)
				transport = append(transport, float64((rtt.End-rtt.Start)-(sp.End-sp.Start))/1e6)
			}
		}
	}
	sum := func(name string) float64 {
		s := 0.0
		for _, d := range durs[name] {
			s += d
		}
		return s
	}

	rep.set("core.plan.ms", ratio(sum(spanPlan), commits), "ms")
	rep.set("core.record.ms", ratio(sum(spanRecord), commits), "ms")
	trainSpan := spanTrain
	if wl.trainInAgents {
		trainSpan = spanAgent
	}
	rep.set("core.train.busy_frac", ratio(busyInCommits(spans, trainSpan), w.commitWall*1e9*float64(e.par)), "fraction")
	// eval.Accuracy is timed on the traced run's own evaluations: one per
	// model per evaluation, at the evaluation batch.
	for _, name := range append([]string{"full"}, evalMembers...) {
		rep.set("eval.accuracy."+name+".ms", median(durs[spanEvalModel+"."+name]), "ms")
	}
	rep.set("core.materialise.ms", mean(popMissMs), "ms")
	rep.set("core.lru.hit_ratio", ratio(popCalls-popMisses, popCalls), "fraction")
	rep.set("data.shard.ms", mean(durs[spanShard]), "ms")
	hits := float64(w.after.storeHits - w.before.storeHits)
	encodes := float64(w.after.storeEncodes - w.before.storeEncodes)
	rep.set("wire.store.hit_ratio", ratio(hits, hits+encodes), "fraction")
	rtt := tailOf(durs[spanRTT])
	rep.set("fednet.rtt.ms_p50", median(durs[spanRTT]), "ms")
	rep.set("fednet.rtt.ms_tail", rtt.Value, "ms")
	rep.set("fednet.agent.ms", mean(durs[spanAgent]), "ms")
	rep.set("fednet.transport.ms", median(transport), "ms")
	posts := float64(w.after.posts - w.before.posts)
	rep.set("fednet.retry_frac", ratio(float64(w.after.resends-w.before.resends), posts), "fraction")
	rep.set("fednet.error_frac", w.errorFrac(), "fraction")

	attr := attribute(spans, spanCommit)
	rep.set("sched.step.self_ms", ratio(float64(attr.Self[spanCommit]), float64(attr.Roots))/1e6, "ms")
	rep.linef("  self time per commit, traced (%d commits, mean wall %.3f ms):", attr.Roots,
		ratio(float64(attr.Wall), float64(attr.Roots))/1e6)
	names := make([]string, 0, len(attr.Self))
	for n := range attr.Self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return attr.Self[names[i]] > attr.Self[names[j]] })
	var total int64
	for _, n := range names {
		total += attr.Self[n]
		rep.linef("    %-24s %10.3f ms  %5.1f%%", n, ratio(float64(attr.Self[n]), float64(attr.Roots))/1e6,
			100*ratio(float64(attr.Self[n]), float64(attr.Wall)))
	}
	rep.linef("    %-24s %10.3f ms  (sum of self times; equals the mean wall)", "sum", ratio(float64(total), float64(attr.Roots))/1e6)
	if rtt.N > 0 {
		rep.linef("  fednet.rtt.ms_tail is p%d of %d round trips", rtt.Percentile, rtt.N)
	}
}

// busyInCommits sums, in ns, the time spans named name overlap commit
// roots: concurrent spans each count, so divided by the commits' wall
// time and the parallelism it is the share of worker capacity they kept
// busy while commits ran.
func busyInCommits(spans []span, name string) float64 {
	var roots []span
	for _, sp := range spans {
		if sp.Root && sp.Name == spanCommit {
			roots = append(roots, sp)
		}
	}
	total := 0.0
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		for _, r := range roots {
			if o := min64(sp.End, r.End) - max64(sp.Start, r.Start); o > 0 {
				total += float64(o)
			}
		}
	}
	return total
}

// Kernel replay: each layer's public functions called directly, at the
// shapes of the workload's own model, pool members, shard and payloads.

// replayReps is how many times each replayed kernel is timed; the median
// is reported.
const replayReps = 5

// timeMedian runs f reps times and returns the median wall time in ms.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = float64(time.Since(start)) / 1e6
	}
	return median(ts)
}

// leaf is one leaf layer of a model at the input shape it sees in
// training.
type leaf struct {
	layer nn.Layer
	kind  string // conv, dwconv, bn, relu, or "" for layers not reported
	in    []int
}

func leafKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.DepthwiseConv2D:
		return "dwconv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.ReLU:
		return "relu"
	}
	return ""
}

// unreported reports whether l is an nn leaf the replay does not time.
func unreported(l nn.Layer) bool {
	switch l.(type) {
	case *nn.Linear, *nn.Flatten, *nn.MaxPool2D, *nn.AvgPool2D, *nn.GlobalAvgPool2D, *nn.Dropout:
		return true
	}
	return false
}

// leaves lists the model's leaf layers with their training input shapes,
// found by one train-mode forward of x. A composite block whose leaves
// are not exported (MobileNetV2's inverted residual) is rebuilt from its
// parameter names and shapes by blockLeaves.
func leaves(m *models.Model, x *tensor.Tensor, rng *rand.Rand) ([]leaf, error) {
	var out []leaf
	for _, l := range m.Layers {
		in := append([]int(nil), x.Shape...)
		y := l.Forward(x, true)
		if k := leafKind(l); k != "" {
			out = append(out, leaf{layer: l, kind: k, in: in})
		} else if !unreported(l) {
			block, err := blockLeaves(l, in, y.Shape, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, block...)
		}
		x = y
	}
	return out, nil
}

// blockLeaves rebuilds an inverted-residual block's leaf chain — expand
// 1×1 conv, BN, ReLU6, depthwise 3×3, BN, ReLU6, project 1×1 conv, BN —
// from its parameters, which are named <block>.<part>.<param>. The
// depthwise stride is the block's spatial reduction. A rebuilt chain must
// reproduce the block's output shape.
func blockLeaves(l nn.Layer, in, out []int, rng *rand.Rand) ([]leaf, error) {
	var parts []string
	shapes := map[string][]int{}
	for _, p := range l.Params() {
		i := strings.LastIndex(p.Name, ".")
		part := p.Name[:i]
		if _, seen := shapes[part]; !seen {
			parts = append(parts, part)
			shapes[part] = p.Val.Shape
		}
	}
	var res []leaf
	shape := in
	add := func(layer nn.Layer) {
		res = append(res, leaf{layer: layer, kind: leafKind(layer), in: shape})
		shape = layer.Forward(tensor.New(shape...), true).Shape
	}
	for _, part := range parts {
		sh := shapes[part]
		switch name := part[strings.LastIndex(part, ".")+1:]; {
		case name == "dw":
			k, stride := sh[2], 1
			for tensor.ConvOutSize(in[2], k, stride, k/2) > out[2] {
				stride++
			}
			add(nn.NewDepthwiseConv2D(rng, part, sh[0], k, stride, k/2, false))
		case strings.HasSuffix(name, "bn"):
			add(nn.NewBatchNorm2D(part, sh[0]))
			if name != "projbn" {
				add(nn.NewReLU6())
			}
		case len(sh) == 4:
			add(nn.NewConv2D(rng, part, sh[1], sh[0], sh[2], 1, sh[2]/2, false))
		default:
			return nil, fmt.Errorf("replay: block part %s has no known leaf", part)
		}
	}
	if fmt.Sprint(shape) != fmt.Sprint(out) {
		return nil, fmt.Errorf("replay: rebuilt block ends at %v, the block at %v", shape, out)
	}
	return res, nil
}

// member returns the pool member with the given paper name.
func member(pool *prune.Pool, name string) (prune.Submodel, bool) {
	for _, m := range pool.Members {
		if m.Name() == name {
			return m, true
		}
	}
	return prune.Submodel{}, false
}

// modelAt builds the model of a pool member (nil widths: the full model)
// loaded from the global weights.
func modelAt(in replayInputs, mem *prune.Submodel) (*models.Model, error) {
	st := in.global
	var widths []int
	if mem != nil {
		var err error
		if st, err = in.pool.ExtractState(in.global, *mem); err != nil {
			return nil, err
		}
		widths = mem.Widths
	}
	m, err := models.Build(in.model, widths)
	if err != nil {
		return nil, err
	}
	return m, nn.LoadState(m, st)
}

// replayKernels times every replayed layer function for one workload.
func replayKernels(in replayInputs) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	rng := rand.New(rand.NewSource(1))
	batch := min(in.train.BatchSize, in.shard.Len())
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	x, labels := in.shard.Gather(idx)

	// nn: every leaf layer's Forward and Backward at its training shape,
	// summed per layer kind over one step of the full model.
	full, err := modelAt(in, nil)
	if err != nil {
		return nil, err
	}
	ls, err := leaves(full, x, rng)
	if err != nil {
		return nil, err
	}
	fwd, bwd := map[string]float64{}, map[string]float64{}
	for _, lf := range ls {
		if lf.kind == "" {
			continue
		}
		xin := tensor.Randn(rng, 1, lf.in...)
		var g *tensor.Tensor
		fwd[lf.kind] += timeMedian(replayReps, func() { g = lf.layer.Forward(xin, true) })
		grad := tensor.Randn(rng, 1, g.Shape...)
		ts := make([]float64, replayReps)
		for i := range ts {
			lf.layer.Forward(xin, true) // Backward consumes the forward cache
			start := time.Now()
			lf.layer.Backward(grad)
			ts[i] = float64(time.Since(start)) / 1e6
		}
		bwd[lf.kind] += median(ts)
	}
	for _, k := range []string{"conv", "dwconv", "bn", "relu"} {
		set("nn."+k+".fwd.ms", fwd[k], "ms")
		set("nn."+k+".bwd.ms", bwd[k], "ms")
	}

	// tensor: the im2col, GEMM and col2im work of every Conv2D leaf, per
	// training step (forward GEMM plus the two backward GEMMs per sample).
	var gemmMs, im2colMs, col2imMs, flops float64
	for _, lf := range ls {
		c, ok := lf.layer.(*nn.Conv2D)
		if !ok {
			continue
		}
		n, ch, h, wd := lf.in[0], lf.in[1], lf.in[2], lf.in[3]
		oh, ow := tensor.ConvOutSize(h, c.K, c.Stride, c.Pad), tensor.ConvOutSize(wd, c.K, c.Stride, c.Pad)
		rows, spatial := ch*c.K*c.K, oh*ow
		xin := tensor.Randn(rng, 1, n, ch, h, wd)
		cols := tensor.New(rows, n*spatial)
		dst := tensor.New(n, ch, h, wd)
		wm := tensor.Randn(rng, 0.1, c.OutC, rows)
		colsS := tensor.Randn(rng, 1, rows, spatial)
		outS := tensor.New(c.OutC, spatial)
		g := tensor.Randn(rng, 1, c.OutC, spatial)
		dw := tensor.New(c.OutC, rows)
		dcols := tensor.New(rows, spatial)
		im2colMs += timeMedian(replayReps, func() { tensor.Im2ColBatch(xin, c.K, c.K, c.Stride, c.Pad, cols) })
		col2imMs += timeMedian(replayReps, func() { tensor.Col2ImBatch(cols, ch, h, wd, c.K, c.K, c.Stride, c.Pad, dst) })
		gemmMs += timeMedian(replayReps, func() {
			for s := 0; s < n; s++ {
				tensor.Gemm(false, false, 1, wm, colsS, 0, outS)
				tensor.Gemm(false, true, 1, g, colsS, 1, dw)
				tensor.Gemm(true, false, 1, wm, g, 0, dcols)
			}
		})
		flops += float64(n) * 3 * 2 * float64(c.OutC) * float64(rows) * float64(spatial)
	}
	set("tensor.gemm.ms", gemmMs, "ms")
	set("tensor.gemm.gflops", ratio(flops, gemmMs*1e6), "GFLOP/s")
	set("tensor.im2col.ms", im2colMs, "ms")
	set("tensor.col2im.ms", col2imMs, "ms")

	// models: one SGD step of each level's largest member at the training
	// batch, inference of the full model at the evaluation batch, and the
	// bytes one full-model step allocates.
	for _, name := range []string{"L1", "M1", "S1"} {
		mem, ok := member(in.pool, name)
		if !ok {
			continue
		}
		m, err := modelAt(in, &mem)
		if err != nil {
			return nil, err
		}
		params := m.Params()
		opt := nn.NewSGD(in.train.LR, in.train.Momentum, 0)
		step := func() {
			nn.ZeroGradParams(params)
			_, g := nn.CrossEntropy(m.Forward(x, true), labels)
			m.Backward(g)
			opt.Step(params)
		}
		step()
		set("models.train_step."+name+".ms", timeMedian(replayReps, step), "ms")
		if name == "L1" {
			allocs := make([]float64, 3)
			var m0, m1 runtime.MemStats
			for i := range allocs {
				runtime.ReadMemStats(&m0)
				step()
				runtime.ReadMemStats(&m1)
				allocs[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			}
			set("nn.alloc_mb_per_step", median(allocs), "MB")
		}
	}
	evalIdx := make([]int, min(evalBatch, in.test.Len()))
	for i := range evalIdx {
		evalIdx[i] = i
	}
	xe, _ := in.test.Gather(evalIdx)
	set("models.infer.ms", timeMedian(replayReps, func() { full.Forward(xe, false) }), "ms")

	// core: one local-training dispatch of the full model on a real shard.
	l1, _ := member(in.pool, "L1")
	stL1, err := in.pool.ExtractState(in.global, l1)
	if err != nil {
		return nil, err
	}
	var trainErr error
	set("core.train.ms", timeMedian(3, func() {
		_, trainErr = core.TrainLocal(in.model, l1.Widths, stL1, in.shard, in.train, rand.New(rand.NewSource(7)))
	}), "ms")
	if trainErr != nil {
		return nil, trainErr
	}

	// prune: extraction of every pool member from the global weights.
	var extractErr error
	set("prune.extract.ms", timeMedian(replayReps, func() {
		for _, mem := range in.pool.Members {
			if _, err := in.pool.ExtractState(in.global, mem); err != nil {
				extractErr = err
			}
		}
	})/float64(len(in.pool.Members)), "ms")
	if extractErr != nil {
		return nil, extractErr
	}

	// wire: q8 encode and decode of every pool member's state, on the
	// workload that moves models through q8 (zero elsewhere).
	var encMs, decMs, rawBytes, payload float64
	if in.codec == wire.TagQ8 {
		codec := wire.Q8{}
		for _, mem := range in.pool.Members {
			st, err := in.pool.ExtractState(in.global, mem)
			if err != nil {
				return nil, err
			}
			var b []byte
			var codecErr error
			encMs += timeMedian(replayReps, func() { b, codecErr = codec.Encode(st, nil) })
			if codecErr != nil {
				return nil, codecErr
			}
			decMs += timeMedian(replayReps, func() { _, codecErr = codec.Decode(b, nil) })
			if codecErr != nil {
				return nil, codecErr
			}
			rawBytes += 8 * float64(st.NumParams())
			payload += float64(len(b))
		}
	}
	members := float64(len(in.pool.Members))
	set("wire.encode.ms", ratio(encMs, members), "ms")
	set("wire.decode.ms", ratio(decMs, members), "ms")
	set("wire.encode.mb_per_s", ratio(rawBytes/1e6, encMs/1e3), "MB/s")
	set("wire.payload_kb", ratio(payload, members)/1e3, "kB")
	if in.codec == "" {
		set("wire.encode.mb_per_s", 0, "MB/s")
	}

	// agg: one commit's merge — as many updates as the workload's commit
	// aggregates, cycling down the pool from the full model.
	updates := make([]agg.Update, in.merges)
	for i := range updates {
		mem := in.pool.Members[len(in.pool.Members)-1-i%len(in.pool.Members)]
		st, err := in.pool.ExtractState(in.global, mem)
		if err != nil {
			return nil, err
		}
		updates[i] = agg.Update{State: st, Weight: float64(in.shard.Len())}
	}
	var aggErr error
	set("agg.apply.ms", timeMedian(replayReps, func() { _, aggErr = agg.Aggregate(in.global, updates) }), "ms")
	if aggErr != nil {
		return nil, aggErr
	}

	// rl: client selection over the dense 17-client tables and the sparse
	// million-client tables, each warmed with recorded dispatches.
	set("rl.select.dense.us", selectMicros(in.pool, 17, 17, false), "us")
	set("rl.select.sparse.us", selectMicros(in.pool, 1_000_000, 64, true), "us")

	return out, nil
}

// selectReps is how many selections one rl timing averages.
const selectReps = 2000

// selectMicros times rl.Tables.SelectClient over n clients with a
// candidate set of the given size, after warming the tables with
// dispatch records for 2000 clients drawn from the candidates' range.
func selectMicros(pool *prune.Pool, n, candidates int, sparse bool) float64 {
	rng := rand.New(rand.NewSource(3))
	t := rl.NewTables(rl.Config{}, pool.P, len(pool.Members), n)
	if sparse {
		t = rl.NewSparseTables(rl.Config{}, pool.P, len(pool.Members), n)
	}
	cands := rng.Perm(n)[:candidates]
	if sparse {
		seen := map[int]bool{}
		cands = cands[:0]
		for len(cands) < candidates {
			if c := rng.Intn(n); !seen[c] {
				seen[c] = true
				cands = append(cands, c)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		sent := pool.Members[rng.Intn(len(pool.Members))]
		c := cands[rng.Intn(len(cands))]
		if i%2 == 1 {
			c = rng.Intn(n)
		}
		t.RecordDispatch(sent, pool.Members[rng.Intn(sent.Index+1)], c)
	}
	start := time.Now()
	for i := 0; i < selectReps; i++ {
		t.SelectClient(rng, rl.ModeCS, pool.Members[i%len(pool.Members)], pool, cands)
	}
	return float64(time.Since(start)) / 1e3 / selectReps
}
