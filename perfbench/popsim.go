package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
)

// The popsim-1e6 cell: the CI million-client spec over 8 edges under
// semiasync, at quick scale.
const (
	popSpec  = "mix:n=1000000,weak=0.6,churn=30"
	popEdges = 8
	// popCheckHorizon is the virtual horizon the recomposed run and
	// exp.RunPopSim are compared at; the recomposed run reaches it during
	// set-up, before the timed window.
	popCheckHorizon = 600.0
	// popCalibRound is exp.RunPopSim's auto time scale: one Medium-class
	// round trip of the full model costs this many virtual seconds.
	popCalibRound = 180.0
)

func popScale(e env) exp.Scale {
	sc := exp.QuickScale()
	sc.Seed = e.seed
	sc.Parallelism = e.par
	sc.Sched = "semiasync"
	sc.Observer = e.obs
	return sc
}

// popSys is popsim-1e6 rebuilt from the public constructors exp.RunPopSim
// calls, so the benchmark can step the hierarchy one global commit at a
// time and, traced, put its probes under the shards.
type popSys struct {
	spec  core.PopulationSpec
	sc    exp.Scale
	mcfg  models.Config
	pool  *prune.Pool
	pop   *core.LazyPopulation
	probe *popProbe // traced only
	edges []*sched.Edge
	hier  *sched.Hierarchy
	// test and shard are the kernel replay's inputs: the data family's
	// test set and client 0's shard.
	test, shard *data.Dataset
	tr          *tracer
	sampler     *busySampler // traced only
}

// scaledCost multiplies every priced duration of a base cost model, as
// exp.RunPopSim's calibration does.
type scaledCost struct {
	base sched.CostModel
	f    float64
}

func (s scaledCost) DispatchTimes(class core.DeviceClass, d core.Dispatch, samples, epochs int) (down, train, up float64) {
	down, train, up = s.base.DispatchTimes(class, d, samples, epochs)
	return down * s.f, train * s.f, up * s.f
}

// openPop builds the recomposed popsim and steps it to popCheckHorizon.
func openPop(e env) (*popSys, error) {
	sc := popScale(e)
	spec, err := core.ParsePopulation(popSpec)
	if err != nil {
		return nil, err
	}
	spec.Seed = sc.Seed + 977
	mcfg, err := exp.ModelConfig(models.MobileNetV2, spec.Dataset, sc)
	if err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		return nil, err
	}
	dcfg, err := exp.DatasetConfig(spec.Dataset, sc)
	if err != nil {
		return nil, err
	}
	ws, err := data.NewWriterSampler(dcfg)
	if err != nil {
		return nil, err
	}
	classesPer := spec.Classes
	if classesPer <= 0 {
		classesPer = max(2, dcfg.Classes/3)
	}
	s := &popSys{spec: spec, sc: sc, mcfg: mcfg, pool: pool, tr: e.tr}
	gen := func(c int, seed int64) *data.Dataset {
		start := e.tr.now()
		d, err := ws.Shard(seed, spec.Samples, classesPer, 0.15, 0.15)
		if err != nil {
			// The parameters are the ones the first shard validated.
			panic(fmt.Sprintf("shard for client %d: %v", c, err))
		}
		e.tr.add(spanShard, start, e.tr.now(), 0)
		return d
	}
	if s.pop, err = core.NewLazyPopulation(spec, pool, core.DefaultDeviceModel(), gen, 0); err != nil {
		return nil, err
	}
	var base core.Population = s.pop
	if e.tr != nil {
		s.probe = &popProbe{base: s.pop, tr: e.tr}
		base = s.probe
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		return nil, err
	}
	largest := pool.Largest()
	down, train, up := sim.DispatchTimes(core.Medium, core.Dispatch{Sent: largest, Got: largest}, spec.Samples, max(1, sc.LocalEpochs))
	cost := scaledCost{base: sim, f: popCalibRound / (down + train + up)}
	pol, err := sched.ParsePolicy(sc.Sched)
	if err != nil {
		return nil, err
	}
	weak := func(c int) bool { return spec.ClassOf(c) == core.Weak }
	baseTrace := sched.PopTrace{Spec: spec, SlowOnly: weak}
	adv := spec.Adversary
	adv.Seed = spec.Seed

	kEdge := max(1, sc.K/popEdges)
	per := spec.N / popEdges
	for i := 0; i < popEdges; i++ {
		n := per
		if i == popEdges-1 {
			n = spec.N - per*(popEdges-1)
		}
		shard, err := core.NewShardPopulation(base, i*per, n)
		if err != nil {
			return nil, err
		}
		advEdge := adv
		advEdge.Seed = adv.Seed + int64(i)
		srv, err := core.NewServerPopulation(core.Config{
			Model: mcfg, Pool: prune.Config{P: 3}, RL: rl.Config{},
			ClientsPerRound: kEdge, Train: sc.TrainConfig(),
			Seed: sc.Seed + 101 + 1000*int64(i), Parallelism: sc.Parallelism,
			Observer: sc.Observer, Agg: sc.Agg, Adversary: advEdge,
		}, shard)
		if err != nil {
			return nil, err
		}
		eng, err := sched.New(srv, cost, sched.OffsetTrace{Base: baseTrace, Offset: i * per},
			sched.Config{Policy: pol, K: kEdge, Epochs: sc.LocalEpochs, Parallelism: sc.Parallelism})
		if err != nil {
			return nil, err
		}
		s.edges = append(s.edges, &sched.Edge{Srv: srv, Eng: eng})
	}
	if s.hier, err = sched.NewHierarchy(s.edges, cost, sched.HierConfig{Epochs: sc.LocalEpochs, Observer: sc.Observer}); err != nil {
		return nil, err
	}
	_, s.test = data.Generate(dcfg)
	if s.shard, err = ws.Shard(spec.ClientSeed(0), spec.Samples, classesPer, 0.15, 0.15); err != nil {
		return nil, err
	}
	if m := sc.Observer.Metrics(); m != nil {
		s.sampler = startBusySampler(&m.ExecRunning, e.tr)
	}
	for s.hier.Clock() < popCheckHorizon {
		if err := s.commit(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// checkPopSim compares the recomposed run against exp.RunPopSim at the
// same spec, seed and horizon.
func checkPopSim(e env, s *popSys) error {
	res, err := exp.RunPopSim(nil, s.spec, popScale(env{seed: e.seed, par: e.par}), popEdges, popCheckHorizon, 0)
	if err != nil {
		return err
	}
	if got := nn.HashState(s.hier.Global()); got != res.WeightsHash {
		return fmt.Errorf("popsim: recomposed weights hash %016x != exp.RunPopSim %016x at t=%.0f", got, res.WeightsHash, popCheckHorizon)
	}
	return nil
}

func (s *popSys) commit() error {
	_, err := s.hier.Step()
	return err
}

func (s *popSys) global() nn.State { return s.hier.Global() }

func (s *popSys) simTime() float64 { return s.hier.Clock() }

func (s *popSys) counters() counters {
	var c counters
	for _, ed := range s.edges {
		for _, st := range ed.Srv.Stats() {
			for _, d := range st.Dispatches {
				if trained(d) {
					c.samples += float64(s.spec.Samples * s.sc.LocalEpochs)
				}
				c.wire += dispatchBytes(d)
			}
		}
	}
	return c
}

// ledger mirrors the hierarchy ledger exp.RunPopSim builds.
func (s *popSys) ledger() *analyze.LedgerSummary {
	var l analyze.LedgerSummary
	l.Policy = s.sc.Sched
	l.HasDiscounts = true
	for _, ed := range s.edges {
		l.AddStats(ed.Srv.Stats())
		l.DiscountSum += ed.Eng.DiscountSum()
		l.StalenessExp = ed.Eng.StalenessExp()
	}
	l.GlobalCommits = len(s.hier.Commits())
	l.GlobalStalenessExp = s.hier.StalenessExp()
	l.GlobalDiscountSum = s.hier.DiscountSum()
	if s.sc.Observer.Enabled() {
		live, made := s.pop.Materialized()
		l.HasLRU = true
		l.LRULive, l.LRUMade = int64(live), made
	}
	return &l
}

func (s *popSys) replay() replayInputs {
	return replayInputs{model: s.mcfg, pool: s.pool, global: s.hier.Global(), shard: s.shard,
		test: s.test, train: s.sc.TrainConfig(), merges: max(1, s.sc.K/popEdges)}
}

func (s *popSys) close() {
	if s.sampler != nil {
		s.sampler.stop()
	}
}

// popProbe sits between the lazy population and the edge shards and times
// every client lookup and pin. A call that materialised a client (the
// population's made-count moved) is tagged 1.
type popProbe struct {
	base *core.LazyPopulation
	tr   *tracer
}

func (p *popProbe) Len() int { return p.base.Len() }

func (p *popProbe) timed(call func()) {
	_, before := p.base.Materialized()
	start := p.tr.now()
	call()
	end := p.tr.now()
	_, after := p.base.Materialized()
	var miss int64
	if after > before {
		miss = 1
	}
	p.tr.add(spanPop, start, end, miss)
}

func (p *popProbe) Client(c int) *core.Client {
	var cl *core.Client
	p.timed(func() { cl = p.base.Client(c) })
	return cl
}

func (p *popProbe) Pin(c int) { p.timed(func() { p.base.Pin(c) }) }

func (p *popProbe) Unpin(c int) { p.base.Unpin(c) }

func (p *popProbe) SampleCandidates(rng *rand.Rand, k int) []int {
	return p.base.SampleCandidates(rng, k)
}

func (p *popProbe) SetObserver(o *obs.Observer) { p.base.SetObserver(o) }

// busySampler polls the executors' running-task gauge every millisecond
// and records one core.train span per concurrency level per interval: a
// level-k span is open while at least k tasks run, so the spans' summed
// length is the integral of running tasks over time. It is the outside
// view of training the engine's in-process trainer leaves, since wrapping
// that trainer would change how flights are planned.
type busySampler struct {
	gauge *obs.Gauge
	tr    *tracer
	quit  chan struct{}
	done  sync.WaitGroup
}

func startBusySampler(g *obs.Gauge, tr *tracer) *busySampler {
	b := &busySampler{gauge: g, tr: tr, quit: make(chan struct{})}
	b.done.Add(1)
	go b.run()
	return b
}

func (b *busySampler) run() {
	defer b.done.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	prev := b.tr.now()
	var open []int64 // open[k-1]: start of the level-k interval, or -1
	for {
		select {
		case <-b.quit:
			for _, start := range open {
				if start >= 0 {
					b.tr.add(spanTrain, start, b.tr.now(), 0)
				}
			}
			return
		case <-tick.C:
		}
		now := b.tr.now()
		running := int(b.gauge.Value())
		for len(open) < running {
			open = append(open, -1)
		}
		for k := range open {
			switch {
			case k < running && open[k] < 0:
				open[k] = prev
			case k >= running && open[k] >= 0:
				b.tr.add(spanTrain, open[k], now, 0)
				open[k] = -1
			}
		}
		prev = now
	}
}

func (b *busySampler) stop() {
	close(b.quit)
	b.done.Wait()
}
