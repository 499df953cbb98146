package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/fednet"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

// counters are a system's cumulative totals; measure differences them
// across a measurement window.
type counters struct {
	samples float64 // local-training samples: trained dispatches × shard size × epochs
	wire    float64 // model bytes moved down and up (see dispatchBytes)
	// HTTP dispatches (POST /train) seen by the trainer's transport, those
	// that failed in transport, and 412/415 answers that make it resend.
	posts, postFailed, resends int64
	// Artifact-store lookups served from cache, and encodes.
	storeHits, storeEncodes int64
}

// replayInputs are the shapes and payloads a workload's kernel replay
// runs at: its model, pool, current global weights, one real client shard
// and its test set.
type replayInputs struct {
	model  models.Config
	pool   *prune.Pool
	global nn.State
	shard  *data.Dataset
	test   *data.Dataset
	train  core.TrainConfig
	// codec is the wire codec tag the workload moves models through ("" for none).
	codec string
	// merges is how many updates one commit aggregates.
	merges int
}

// evaluator is a system that evaluates its global model between commits,
// the way exp.RunCurve does.
type evaluator interface {
	evaluate() error
}

// system is one workload's system under test, driven one closed-loop
// commit at a time.
type system interface {
	commit() error
	global() nn.State
	// simTime is the virtual time reached, in seconds.
	simTime() float64
	counters() counters
	// ledger is the run's conservation summary for the span audit.
	ledger() *analyze.LedgerSummary
	replay() replayInputs
	close()
}

// env carries what every system build shares.
type env struct {
	seed int64
	par  int
	tr   *tracer       // nil: untraced
	obs  *obs.Observer // nil: unobserved
}

// bytesPerParam prices a codec-less dispatch the way the Table 5 cost
// model does.
var bytesPerParam = func() float64 {
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		panic(err)
	}
	return sim.BytesPerParam
}()

// dispatchBytes is the model payload a dispatch moved: its encoded sizes
// when a codec was in play, else its parameters at the cost model's bytes
// per parameter. A failed or dropped dispatch returns nothing.
func dispatchBytes(d core.Dispatch) float64 {
	back := !d.Failed && !d.Dropped
	if d.SentBytes > 0 || d.GotBytes > 0 {
		b := float64(d.SentBytes)
		if back {
			b += float64(d.GotBytes)
		}
		return b
	}
	p := float64(d.Sent.Size)
	if back {
		p += float64(d.Got.Size)
	}
	return p * bytesPerParam
}

// trained reports whether a dispatch ran local training to completion.
func trained(d core.Dispatch) bool { return !d.Failed && !d.Dropped && !d.TrainSkipped }

// spanLog is an obs.SpanSink that keeps the program's own spans in memory
// for the end-of-run audit.
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (l *spanLog) Span(s obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Span(nil), l.spans...)
}

// evalMembers are the per-level submodels every evaluation scores next to
// the full model, as baselines.Adaptive.Evaluate does.
var evalMembers = []string{"S1", "M1", "L1"}

// evaluateState scores the full model and the per-level submodels cut from
// global on test at batch 64, one span per model when traced. It is the
// composition baselines.Adaptive.Evaluate performs, opened up so each
// eval.Accuracy call can be timed.
func evaluateState(tr *tracer, mcfg models.Config, pool *prune.Pool, global nn.State, test *data.Dataset) error {
	score := func(name string, widths []int, st nn.State) error {
		m, err := models.Build(mcfg, widths)
		if err != nil {
			return err
		}
		if err := nn.LoadState(m, st); err != nil {
			return err
		}
		start := tr.now()
		eval.Accuracy(m, test, evalBatch)
		tr.add(spanEvalModel+"."+name, start, tr.now(), 0)
		return nil
	}
	if err := score("full", nil, global); err != nil {
		return err
	}
	for _, name := range evalMembers {
		for _, mem := range pool.Members {
			if mem.Name() != name {
				continue
			}
			st, err := pool.ExtractState(global, mem)
			if err != nil {
				return err
			}
			if err := score(name, mem.Widths, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalBatch is the inference batch size evaluations run at.
const evalBatch = 64

// ---------------------------------------------------------------------
// AdaptiveFL server workloads: sync-mnv2 and fednet-vgg16-q8.

// adaptiveSys is one AdaptiveFL server with its federation, advanced by
// step: the scheduler engine's Runner.Round, or the step-API drive.
type adaptiveSys struct {
	fed      *exp.Federation
	sc       exp.Scale
	srv      *core.Server
	runner   baselines.Runner
	step     func() error
	clock    func() float64 // virtual seconds
	tr       *tracer
	eng      *sched.Engine // nil under the step-API drive
	probe    *httpProbe    // fednet only
	store    *wire.ArtifactStore
	codec    string
	merges   int
	policy   string
	shutdown func()
}

func (s *adaptiveSys) commit() error { return s.step() }

func (s *adaptiveSys) evaluate() error {
	if s.tr == nil {
		_, err := s.runner.Evaluate(s.fed.Test, evalBatch)
		return err
	}
	return evaluateState(s.tr, s.fed.Model, s.srv.Pool(), s.srv.Global(), s.fed.Test)
}

func (s *adaptiveSys) global() nn.State { return s.srv.Global() }

func (s *adaptiveSys) simTime() float64 { return s.clock() }

func (s *adaptiveSys) counters() counters {
	var c counters
	for _, st := range s.srv.Stats() {
		for _, d := range st.Dispatches {
			if trained(d) {
				c.samples += float64(s.fed.Clients[d.Client].Data.Len() * s.sc.LocalEpochs)
			}
			c.wire += dispatchBytes(d)
		}
	}
	if s.probe != nil {
		c.posts, c.postFailed, c.resends = s.probe.posts.Load(), s.probe.failed.Load(), s.probe.resends.Load()
	}
	if s.store != nil {
		c.storeHits, c.storeEncodes = s.store.Hits(), s.store.Encodes()
	}
	return c
}

func (s *adaptiveSys) ledger() *analyze.LedgerSummary {
	l := analyze.SummarizeStats(s.srv.Stats())
	l.Policy = s.policy
	if s.eng != nil {
		l.HasDiscounts = true
		l.StalenessExp = s.eng.StalenessExp()
		l.DiscountSum = s.eng.DiscountSum()
	}
	return &l
}

func (s *adaptiveSys) replay() replayInputs {
	return replayInputs{model: s.fed.Model, pool: s.srv.Pool(), global: s.srv.Global(),
		shard: s.fed.Clients[0].Data, test: s.fed.Test, train: s.sc.TrainConfig(),
		codec: s.codec, merges: s.merges}
}

func (s *adaptiveSys) close() {
	if s.shutdown != nil {
		s.shutdown()
	}
}

// cellSeed is the scale seed of the sync-mnv2 and fednet-vgg16-q8 cells:
// it fixes their model initialisation, device population, selection and
// trace streams, so every benchmark seed asks the same amount of work of
// them. The benchmark seed drives their data (see federation).
const cellSeed = 1

// federation builds a cell's federation at sc (seed cellSeed) and swaps
// in the data — every client shard and the test set — built at the
// benchmark seed.
func federation(arch models.Arch, dataset string, dist exp.Dist, mix [3]float64, sc exp.Scale, seed int64) (*exp.Federation, error) {
	fed, err := exp.BuildFederation(arch, dataset, dist, mix, sc)
	if err != nil {
		return nil, err
	}
	dsc := sc
	dsc.Seed = seed
	data, err := exp.BuildFederation(arch, dataset, dist, mix, dsc)
	if err != nil {
		return nil, err
	}
	for i, c := range fed.Clients {
		c.Data = data.Clients[i].Data
	}
	fed.Test = data.Test
	return fed, nil
}

// syncScale is the sync-mnv2 cell: the Table 5 platform (17 clients, 4
// Pi / 10 Nano / 3 Xavier), K=5, quick scale, straggler trace, the sync
// policy, no codec and the exact mean.
func syncScale(e env) exp.Scale {
	sc := exp.QuickScale()
	sc.Clients, sc.K = 17, 5
	sc.Seed = cellSeed
	sc.Parallelism = e.par
	sc.Sched, sc.Trace = "sync", "straggler"
	sc.Observer = e.obs
	return sc
}

var table5Mix = [3]float64{4, 10, 3}

// openSync builds sync-mnv2. Untraced, commits go through the scheduler
// engine (Runner.Round). Traced, the same server is built without an
// engine and each commit is driven through core.Server's step API by
// stepDrive, so plan, train, record and aggregate can each be timed.
func openSync(e env) (system, error) {
	sc := syncScale(e)
	fed, err := federation(models.MobileNetV2, "widar", exp.Natural, table5Mix, sc, e.seed)
	if err != nil {
		return nil, err
	}
	s := &adaptiveSys{fed: fed, sc: sc, tr: e.tr, merges: sc.K, policy: sc.Sched}
	if e.tr == nil {
		r, err := exp.NewRunner("AdaptiveFL", fed, sc)
		if err != nil {
			return nil, err
		}
		sa, ok := r.(*baselines.SchedAdaptive)
		if !ok {
			return nil, fmt.Errorf("sync-mnv2: runner %s is not scheduler-driven", r.Name())
		}
		s.runner, s.srv, s.eng = sa, sa.Srv, sa.Eng
		s.step, s.clock = sa.Round, sa.SimTime
		return s, nil
	}
	legacy := sc
	legacy.Sched = ""
	r, err := exp.NewRunner("AdaptiveFL", fed, legacy)
	if err != nil {
		return nil, err
	}
	a, ok := r.(*baselines.Adaptive)
	if !ok {
		return nil, fmt.Errorf("sync-mnv2: runner %s has no server", r.Name())
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		return nil, err
	}
	weak := func(c int) bool { return fed.Clients[c].Device.Class == core.Weak }
	trace, err := sched.ParseTrace(sc.Trace, sc.Seed+909, weak)
	if err != nil {
		return nil, err
	}
	d := &stepDrive{srv: a.Srv, cost: sim, trace: trace, k: sc.K, epochs: sc.LocalEpochs,
		par: sc.Parallelism, tr: e.tr, obs: e.obs}
	s.runner, s.srv = a, a.Srv
	s.step, s.clock = d.step, func() float64 { return d.clock }
	return s, nil
}

// fednetScale is the fednet-vgg16-q8 cell: the CLI's default VGG16 /
// cifar10 / iid cell at quick scale with 17 clients, K=5, semiasync under
// the straggler trace, q8 negotiated per agent.
func fednetScale(e env) exp.Scale {
	sc := exp.QuickScale()
	sc.Clients, sc.K = 17, 5
	sc.Seed = cellSeed
	sc.Parallelism = e.par
	sc.Sched, sc.Trace, sc.Codec = "semiasync", "straggler", wire.TagQ8
	sc.Observer = e.obs
	return sc
}

// openFednet builds fednet-vgg16-q8: one loopback HTTP agent per client
// (the agents are part of the system under test) and an HTTPTrainer whose
// transport counts every dispatch. Traced, the transport also times each
// round trip and a handler around each agent times its side.
func openFednet(e env) (system, error) {
	sc := fednetScale(e)
	fed, err := federation(models.VGG16, "cifar10", exp.IID, exp.DefaultProportions, sc, e.seed)
	if err != nil {
		return nil, err
	}
	return openFednetWith(e, sc, fed, nil)
}

// openFednetWith assembles the fednet system over fed; base, when set,
// replaces the client transport under the benchmark's probe (tests inject
// a failing RoundTripper there).
func openFednetWith(e env, sc exp.Scale, fed *exp.Federation, base http.RoundTripper) (*adaptiveSys, error) {
	fleet, urls, err := spawnAgents(fed, e.tr)
	if err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(fed.Model, prune.Config{P: 3})
	if err != nil {
		fleet.close()
		return nil, err
	}
	own := http.DefaultTransport.(*http.Transport).Clone()
	if base == nil {
		base = own
	}
	probe := &httpProbe{base: base, tr: e.tr}
	trainer := fednet.NewHTTPTrainer(urls, pool, sc.TrainConfig())
	trainer.HTTPClient.Transport = probe
	codec, err := wire.ByTag(sc.Codec)
	if err != nil {
		fleet.close()
		return nil, err
	}
	trainer.Negotiate(codec)
	sc.Trainer = trainer
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		fleet.close()
		return nil, err
	}
	sa, ok := r.(*baselines.SchedAdaptive)
	if !ok {
		fleet.close()
		return nil, fmt.Errorf("fednet-vgg16-q8: runner %s is not scheduler-driven", r.Name())
	}
	s := &adaptiveSys{fed: fed, sc: sc, srv: sa.Srv, runner: sa, eng: sa.Eng, tr: e.tr,
		probe: probe, store: trainer.Artifacts(), codec: sc.Codec,
		policy: sc.Sched, step: sa.Round, clock: sa.SimTime}
	// A semiasync commit merges a buffer of max(1, K/2) arrivals.
	s.merges = max(1, sc.K/2)
	s.shutdown = func() {
		fleet.close()
		probe.drain()
		own.CloseIdleConnections()
	}
	return s, nil
}

// agentFleet is the set of loopback agent servers.
type agentFleet struct {
	servers  []*http.Server
	serving  sync.WaitGroup
	inflight atomic.Int64 // agent requests being served
}

// spawnAgents starts one fednet.Agent per client behind agentProbe, on
// an ephemeral loopback port each — the construction fednet.NewCluster
// performs, with the benchmark's handler in front of every agent.
func spawnAgents(fed *exp.Federation, tr *tracer) (*agentFleet, []string, error) {
	fl := &agentFleet{}
	var urls []string
	for _, c := range fed.Clients {
		agent, err := fednet.NewAgent(c, fed.Model, prune.Config{P: 3})
		if err != nil {
			fl.close()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, nil, fmt.Errorf("agent listener: %w", err)
		}
		srv := &http.Server{Handler: &agentProbe{next: agent, tr: tr, inflight: &fl.inflight}}
		fl.servers = append(fl.servers, srv)
		fl.serving.Add(1)
		go func() {
			defer fl.serving.Done()
			_ = srv.Serve(ln) // returns http.ErrServerClosed on close
		}()
		urls = append(urls, "http://"+ln.Addr().String()+"/train")
	}
	return fl, urls, nil
}

// close shuts every agent server and waits for the serving goroutines and
// any request still being handled.
func (fl *agentFleet) close() {
	for _, srv := range fl.servers {
		srv.Close()
	}
	fl.serving.Wait()
	waitZero(&fl.inflight)
}

// waitZero polls n until it reads zero, for at most drainTimeout.
func waitZero(n *atomic.Int64) {
	deadline := time.Now().Add(drainTimeout)
	for n.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// drainTimeout bounds how long a shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// agentProbe sits in front of one agent: it counts requests in flight and,
// traced, times each POST /train from the agent's side. It never touches
// the agent's own wall log.
type agentProbe struct {
	next     http.Handler
	tr       *tracer
	inflight *atomic.Int64
}

func (p *agentProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	if p.tr == nil || r.Method != http.MethodPost {
		p.next.ServeHTTP(w, r)
		return
	}
	flight, _ := strconv.ParseInt(r.Header.Get(fednet.FlightHeader), 10, 64)
	start := p.tr.now()
	p.next.ServeHTTP(w, r)
	p.tr.add(spanAgent, start, p.tr.now(), flight)
}

// httpProbe is the trainer's RoundTripper. It counts dispatches (POST
// /train), transport failures and the 412/415 answers that make the
// trainer resend; traced, it times each round trip from the request to
// the last read of the response body, so the trainer's decode of the
// upload after that read is not counted as transport.
type httpProbe struct {
	base                   http.RoundTripper
	tr                     *tracer
	posts, failed, resends atomic.Int64
	inflight               atomic.Int64 // response bodies not yet closed
}

func (p *httpProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return p.base.RoundTrip(req)
	}
	p.posts.Add(1)
	flight, _ := strconv.ParseInt(req.Header.Get(fednet.FlightHeader), 10, 64)
	start := p.tr.now()
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		p.failed.Add(1)
		p.tr.add(spanRTT, start, p.tr.now(), flight)
		return nil, err
	}
	if resp.StatusCode == http.StatusPreconditionFailed || resp.StatusCode == http.StatusUnsupportedMediaType {
		p.resends.Add(1)
	}
	p.inflight.Add(1)
	body := &probedBody{ReadCloser: resp.Body, tr: p.tr, last: p.tr.now()}
	body.done = func() {
		p.tr.add(spanRTT, start, body.last, flight)
		p.inflight.Add(-1)
	}
	resp.Body = body
	return resp, nil
}

// drain waits until every response body handed out has been closed.
func (p *httpProbe) drain() { waitZero(&p.inflight) }

// probedBody notes when the trainer last read the response body.
type probedBody struct {
	io.ReadCloser
	tr   *tracer
	last int64
	once sync.Once
	done func()
}

func (b *probedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.last = b.tr.now()
	return n, err
}

func (b *probedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// codecProbe records every encode and decode of a timed codec as a span.
type codecProbe struct{ tr *tracer }

func (c codecProbe) CodecTiming(tag, op string, bytes int, seconds float64) {
	end := c.tr.now()
	name := spanEncode
	if op == "decode" {
		name = spanDecode
	}
	c.tr.add(name, end-int64(seconds*1e9), end, 0)
}

// ---------------------------------------------------------------------
// The step-API drive: one sync commit composed from core.Server's steps.

// stepDrive composes one sync-policy commit from core.Server's public
// steps — PlanSlots → OpenFlight → Plan → Execute → Record →
// ApplyUpdates — with the same virtual-time pricing, eligibility and
// dropout rules as sched's sync policy, so it reaches the same weights as
// Engine.Step (a traced run checks the hash). Execution runs on par
// goroutines.
type stepDrive struct {
	srv    *core.Server
	cost   sched.CostModel
	trace  sched.Trace
	k      int
	epochs int
	par    int
	tr     *tracer
	obs    *obs.Observer
	clock  float64
}

// flightPlan is one dispatch priced on the virtual clock.
type flightPlan struct {
	f     *core.Flight
	eta   float64
	drops bool
	train bool
}

func (d *stepDrive) up(c int, t float64) bool {
	up, _, _ := d.trace.Window(c, t)
	return up
}

// nextOffline is the first time in [t, horizon) at which c is offline.
func (d *stepDrive) nextOffline(c int, t, horizon float64) float64 {
	for t < horizon {
		up, _, until := d.trace.Window(c, t)
		if !up {
			return t
		}
		if math.IsInf(until, 1) {
			return math.Inf(1)
		}
		t = until
	}
	return math.Inf(1)
}

func (d *stepDrive) transferEnd(c int, t, dur float64) (float64, bool) {
	if off := d.nextOffline(c, t, t+dur); off < t+dur {
		return off, true
	}
	return t + dur, false
}

func (d *stepDrive) trainEnd(c int, t, work float64) (float64, bool) {
	for work > 0 {
		up, slow, until := d.trace.Window(c, t)
		if !up {
			return t, true
		}
		need := work * slow
		if math.IsInf(until, 1) || t+need <= until {
			return t + need, false
		}
		work -= (until - t) / slow
		t = until
	}
	return t, false
}

// waitEligible advances the clock until some client is up.
func (d *stepDrive) waitEligible() error {
	n := d.srv.NumClients()
	for {
		open := math.Inf(1)
		for c := 0; c < n; c++ {
			up, _, until := d.trace.Window(c, d.clock)
			if up {
				return nil
			}
			if until < open {
				open = until
			}
		}
		if math.IsInf(open, 1) {
			return fmt.Errorf("step drive: stalled at t=%.3f", d.clock)
		}
		d.clock = open
	}
}

func (d *stepDrive) step() error {
	if c, ok := d.trace.(sched.Compactor); ok {
		c.Retire(d.clock)
	}
	if err := d.waitEligible(); err != nil {
		return err
	}
	srv := d.srv
	planStart := d.tr.now()
	round := srv.NextRound()
	slots := srv.PlanSlots(d.k, func(c int) bool { return d.up(c, d.clock) })
	trainer, err := srv.RoundTrainer(slots)
	if err != nil {
		return err
	}
	plans := make([]flightPlan, len(slots))
	for i, sl := range slots {
		plans[i].f = srv.OpenFlight(sl)
	}
	end := d.clock
	for i := range plans {
		fp := &plans[i]
		pl, err := srv.Plan(trainer, fp.f)
		if err != nil {
			return err
		}
		if pl == nil || !(pl.Failed || pl.UpBytesKnown) {
			return fmt.Errorf("step drive: flight %d needs the engine's join-priced path", fp.f.ID)
		}
		disp := fp.f.Dispatch()
		cl := srv.ClientAt(disp.Client)
		down, train, upT := d.cost.DispatchTimes(cl.Device.Class, disp, cl.Data.Len(), d.epochs)
		t, dropped := d.transferEnd(disp.Client, d.clock, down)
		if !dropped {
			t, dropped = d.trainEnd(disp.Client, t, train)
		}
		if !dropped {
			t, dropped = d.transferEnd(disp.Client, t, upT)
			fp.train = !dropped && !pl.Failed
		}
		if !fp.train {
			srv.SkipFlight(fp.f)
		}
		fp.eta, fp.drops = t, dropped
		if t > end {
			end = t
		}
	}
	d.tr.add(spanPlan, planStart, d.tr.now(), 0)

	sem := make(chan struct{}, d.par)
	var wg sync.WaitGroup
	for i := range plans {
		if !plans[i].train {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(f *core.Flight) {
			defer wg.Done()
			defer func() { <-sem }()
			start := d.tr.now()
			srv.Execute(trainer, f)
			d.tr.add(spanTrain, start, d.tr.now(), 0)
		}(plans[i].f)
	}
	wg.Wait()
	d.clock = end

	recStart := d.tr.now()
	stats := core.RoundStats{Round: round}
	var updates []agg.Update
	for _, fp := range plans {
		srv.Release(fp.f)
		if err := fp.f.Err(); err != nil {
			return fmt.Errorf("step drive: client %d: %w", fp.f.Slot.Client, err)
		}
		oc := core.Merged
		if fp.drops {
			oc = core.Dropped
		}
		disp, u := srv.Record(fp.f, oc)
		stats.Add(disp)
		if u != nil {
			updates = append(updates, *u)
		}
		if d.obs.Enabled() {
			d.obs.Span(srv.FlightSpan(fp.f, disp, oc))
		}
	}
	d.tr.add(spanRecord, recStart, d.tr.now(), 0)

	applyStart := d.tr.now()
	if err := srv.ApplyUpdates(updates); err != nil {
		return err
	}
	d.tr.add(spanApply, applyStart, d.tr.now(), 0)
	srv.PushStats(stats)
	if d.obs.Enabled() {
		sp := obs.Span{Kind: obs.KindCommit, Time: d.clock, Client: -1, Round: round, Merged: len(updates)}
		for _, disp := range stats.Dispatches {
			switch {
			case disp.Dropped:
				sp.Dropped++
			case disp.Failed:
				sp.Failed++
			case disp.Rejected:
				sp.Rejected++
			case disp.Clipped:
				sp.Clipped++
			}
		}
		d.obs.Span(sp)
	}
	return nil
}
