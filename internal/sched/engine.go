package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
)

// evKind classifies queue events.
type evKind int

const (
	evArrive evKind = iota // the flight's upload reaches the server
	evDrop                 // the client goes offline before finishing
)

func (k evKind) String() string {
	if k == evDrop {
		return "drop"
	}
	return "arrive"
}

// flight wraps one open core.Flight with its simulation fate.
type flight struct {
	f   *core.Flight
	d   core.Dispatch // priced ledger view of the executed dispatch
	eta float64       // virtual completion (or dropout) time
	// t0 / downT / trainT are the flight's virtual trace segments for
	// observability: dispatch cut, downlink completion, local-training
	// completion. downT/trainT stay zero when the phase never completed
	// (dropout mid-phase) or the flight was priced in one piece (an
	// unplannable trainer exposes only its end). eta closes the span.
	t0, downT, trainT float64
	// drops is the flight's fate, known at launch: the client's
	// availability window ends before the upload would complete.
	drops bool
	// collected marks a flight whose completion event fired before its
	// round closed (deadline policy: it made the cut).
	collected bool
	// recorded marks flights already finalised (deadline closes a round
	// before its stragglers' events fire); their events only release.
	recorded bool
}

// event is one entry of the virtual-time queue, ordered by (t, seq) so
// simultaneous events resolve in issue order, deterministically.
type event struct {
	t    float64
	seq  int64
	kind evKind
	fl   *flight
}

// eventHeap implements container/heap over events.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is the discrete-event federated-training driver.
type Engine struct {
	cfg   Config
	srv   *core.Server
	cost  CostModel
	trace Trace
	// exec runs flight trainings off the event loop: dispatches enqueue
	// lazily and the arrival event joins the result, so the virtual clock
	// advances while workers train (see launchFlights).
	exec *core.Executor

	clock  float64
	seq    int64
	events eventHeap
	busy   map[int]bool // client id → has an open flight

	// sampled marks a population too large to scan per decision (it
	// implements core.CandidateSampler): eligibility checks and window
	// scans probe a bounded random subset through the engine-owned probe
	// rng instead of iterating every client. The probe stream is seeded by
	// a fixed constant and consumed only on the event loop, so runs stay
	// deterministic.
	sampled bool
	probe   *rand.Rand

	log     []string
	commits []Commit
	// obs is the resolved observer (Config.Observer, falling back to the
	// server's). Nil when observability is off; always safe to call.
	obs *obs.Observer
	// spanEdge tags every span this engine emits with an edge index, so a
	// hierarchy's shared trace stays groupable per tier (0 — the flat-run
	// default — marshals away, matching the global tier's spans).
	spanEdge int
	// discountSum accumulates StalenessDiscount over every update this
	// engine appended to an aggregation (fresh merges count 1.0). It is the
	// ledger-side anchor for the trace auditor's discount reconciliation.
	discountSum float64

	// semiasync stream state, persisted across Steps.
	buffer []agg.Update
	accum  core.RoundStats
	// bank holds deadline-reuse updates from late uploads that arrived
	// after their round closed (staleness discount already applied); the
	// next commit merges and clears it. Their ledger entries accumulate in
	// accum alongside it.
	bank []agg.Update
	// trainer is the cached per-version trainer for one-at-a-time
	// dispatches: RoundTrainer snapshots the global weights, so it stays
	// valid (and keeps memoizing codec pre-encodes) until the next
	// aggregation bumps the version.
	trainer    core.Trainer
	trainerVer int
}

// New builds an engine around a server. cost is required; a nil trace
// defaults to AlwaysOn.
func New(srv *core.Server, cost CostModel, trace Trace, cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if srv == nil || cost == nil {
		return nil, fmt.Errorf("sched: server and cost model are required")
	}
	if trace == nil {
		trace = AlwaysOn{}
	}
	if cfg.K > srv.NumClients() {
		return nil, fmt.Errorf("sched: K=%d exceeds population %d", cfg.K, srv.NumClients())
	}
	exec := srv.Executor()
	if cfg.Parallelism > 0 {
		exec = core.NewExecutor(cfg.Parallelism)
	}
	_, sampled := srv.Population().(core.CandidateSampler)
	observer := cfg.Observer
	if observer == nil {
		observer = srv.Observer()
	}
	if observer.Enabled() {
		exec.SetObserver(observer)
	}
	return &Engine{cfg: cfg, srv: srv, cost: cost, trace: trace, exec: exec,
		busy: map[int]bool{}, sampled: sampled, obs: observer,
		probe: rand.New(rand.NewSource(0x5851f42d4c957f2d))}, nil
}

// emitFlight closes a recorded flight's span: the server supplies the
// ledger facts and RL reward, the engine the virtual trace segments.
// Record must already have run (the reward reads the updated tables).
func (e *Engine) emitFlight(fl *flight, d core.Dispatch, oc core.Outcome) {
	if !e.obs.Enabled() {
		return
	}
	sp := e.srv.FlightSpan(fl.f, d, oc)
	sp.Time = e.clock
	sp.Start = fl.t0
	sp.DownEnd = fl.downT
	sp.TrainEnd = fl.trainT
	sp.End = fl.eta
	sp.Edge = e.spanEdge
	e.obs.Span(sp)
}

// SetSpanEdge tags every span this engine emits with an edge index.
// NewHierarchy calls it so edge traces multiplexed into one sink stay
// separable; flat runs keep the zero default.
func (e *Engine) SetSpanEdge(id int) { e.spanEdge = id }

// noteMerge accrues the staleness discount of one update entering an
// aggregation. Called exactly where an update is appended (fresh merges
// have stale=0 and count 1.0), so DiscountSum is the ground truth the
// trace auditor reconciles Σ StalenessDiscount(span.stale, α) against.
func (e *Engine) noteMerge(stale int) {
	e.discountSum += StalenessDiscount(stale, e.cfg.StalenessExp)
}

// DiscountSum returns the accumulated staleness discount over every
// update this engine merged (see noteMerge).
func (e *Engine) DiscountSum() float64 { return e.discountSum }

// StalenessExp returns the normalized staleness exponent α the engine
// discounts with.
func (e *Engine) StalenessExp() float64 { return e.cfg.StalenessExp }

// Clock returns the current virtual time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Log returns the event log: one line per dispatch, arrival, drop and
// commit, in virtual-time order. Two runs with the same seed, trace and
// cost model produce identical logs.
func (e *Engine) Log() []string { return e.log }

// Commits returns the aggregations performed so far.
func (e *Engine) Commits() []Commit { return e.commits }

func (e *Engine) logf(format string, args ...any) {
	e.log = append(e.log, fmt.Sprintf(format, args...))
}

func (e *Engine) push(t float64, kind evKind, fl *flight) {
	e.seq++
	heap.Push(&e.events, &event{t: t, seq: e.seq, kind: kind, fl: fl})
}

func (e *Engine) pop() *event { return heap.Pop(&e.events).(*event) }

// eligible reports whether client c can receive a dispatch now.
func (e *Engine) eligible(c int) bool {
	if e.busy[c] {
		return false
	}
	up, _, _ := e.trace.Window(c, e.clock)
	return up
}

// probeCount bounds how many random clients a sampled-population engine
// inspects per eligibility or window scan.
const probeCount = 64

// anyEligible reports whether some client can receive a dispatch now. On
// a sampled population it probes probeCount random clients instead of
// scanning the fleet — with any realistic on-share, missing every up
// client 64 times in a row is negligible, and a miss only delays the
// dispatch to the next wake-up, never corrupts state.
func (e *Engine) anyEligible() bool {
	if e.sampled {
		n := e.srv.NumClients()
		for i := 0; i < probeCount; i++ {
			if e.eligible(e.probe.Intn(n)) {
				return true
			}
		}
		return false
	}
	for c := 0; c < e.srv.NumClients(); c++ {
		if e.eligible(c) {
			return true
		}
	}
	return false
}

// nextOffline returns the first time in [t, horizon) at which client c is
// offline, or +Inf if the client stays up for the whole span. Consecutive
// up segments (a speed change without churn) do not count — only a real
// off window can kill a flight.
func (e *Engine) nextOffline(c int, t, horizon float64) float64 {
	for t < horizon {
		up, _, until := e.trace.Window(c, t)
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

// transferEnd advances t by dur seconds of network transfer, or reports
// the dropout time if the client goes offline first.
func (e *Engine) transferEnd(c int, t, dur float64) (end float64, dropped bool) {
	if off := e.nextOffline(c, t, t+dur); off < t+dur {
		return off, true
	}
	return t + dur, false
}

// trainEnd integrates `work` nominal training seconds over the client's
// trace segments starting at t: a segment with slowdown f delivers
// (segment length)/f nominal seconds of progress, and an off segment
// kills the flight. Returns the completion (or dropout) time.
func (e *Engine) trainEnd(c int, t, work float64) (end float64, dropped bool) {
	for work > 0 {
		up, slow, until := e.trace.Window(c, t)
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

// launchFlights prices and lazily executes a burst of opened flights, in
// slot order, at the current virtual time. Pricing is staged around what
// is knowable without the trained result:
//
//   - A plannable flight (in-process trainer) prices its download and
//     training phases from the plan alone. If the client drops before the
//     upload, the fate is sealed and training is skipped entirely — the
//     eager engine used to train these and discard the result unread.
//   - With the upload priceable too (parameter estimate, or a failed
//     dispatch echoing the sent size), the completion event is queued
//     immediately and training runs lazily in the background; the event
//     that consumes the result joins it (Engine.join).
//   - A codec-sized upload of a surviving flight depends on the trained
//     values, so those flights (and flights of unplannable trainers,
//     which own the pruning decision) are joined here, after every
//     flight's training has been enqueued — the joins overlap across the
//     burst instead of serialising it.
//
// Events are pushed and dispatch lines logged in slot order, so the event
// log is bit-identical to the eager engine's.
func (e *Engine) launchFlights(trainer core.Trainer, open []*core.Flight) ([]*flight, error) {
	fls := make([]*flight, len(open))
	plans := make([]*core.FlightPlan, len(open))
	needJoin := make([]bool, len(open))
	uploadAt := make([]float64, len(open))
	downAt := make([]float64, len(open))
	for i, cf := range open {
		pl, err := e.srv.Plan(trainer, cf)
		if err != nil {
			e.abandon(open)
			return nil, fmt.Errorf("sched: t=%.3f %w", e.clock, err)
		}
		plans[i] = pl
		if pl == nil {
			e.srv.ExecuteAsync(e.exec, trainer, cf)
			needJoin[i] = true
			continue
		}
		d := cf.Dispatch() // the plan view: training has not run
		c := d.Client
		cl := e.srv.ClientAt(c)
		down, train, up := e.cost.DispatchTimes(cl.Device.Class, d, cl.Data.Len(), e.cfg.Epochs)
		var downEnd, trainDone float64
		t, dropped := e.transferEnd(c, e.clock, down)
		if !dropped {
			downEnd = t
			if t, dropped = e.trainEnd(c, t, train); !dropped {
				trainDone = t
			}
		}
		switch {
		case dropped:
			e.srv.SkipFlight(cf)
			fls[i] = &flight{f: cf, eta: t, drops: true, t0: e.clock, downT: downEnd}
		case pl.Failed || pl.UpBytesKnown:
			t2, dropped2 := e.transferEnd(c, t, up)
			if dropped2 || pl.Failed {
				e.srv.SkipFlight(cf)
			} else {
				e.srv.ExecuteAsync(e.exec, trainer, cf)
			}
			fls[i] = &flight{f: cf, eta: t2, drops: dropped2,
				t0: e.clock, downT: downEnd, trainT: trainDone}
		default:
			e.srv.ExecuteAsync(e.exec, trainer, cf)
			needJoin[i] = true
			uploadAt[i] = t
			downAt[i] = downEnd
		}
		if fls[i] != nil {
			fls[i].d = cf.Dispatch()
		}
	}
	for i, cf := range open {
		if needJoin[i] {
			cf.Wait()
			if err := cf.Err(); err != nil {
				e.abandon(open)
				return nil, fmt.Errorf("sched: t=%.3f client %d: %w", e.clock, cf.Slot.Client, err)
			}
			d := cf.Dispatch()
			cl := e.srv.ClientAt(d.Client)
			down, train, up := e.cost.DispatchTimes(cl.Device.Class, d, cl.Data.Len(), e.cfg.Epochs)
			var t, downEnd, trainDone float64
			var dropped bool
			if plans[i] != nil {
				// Download and training were priced in the first pass; the
				// join only supplied the upload size.
				downEnd, trainDone = downAt[i], uploadAt[i]
				t, dropped = e.transferEnd(d.Client, uploadAt[i], up)
			} else {
				t, dropped = e.transferEnd(d.Client, e.clock, down)
				if !dropped {
					downEnd = t
					if t, dropped = e.trainEnd(d.Client, t, train); !dropped {
						trainDone = t
					}
				}
				if !dropped {
					t, dropped = e.transferEnd(d.Client, t, up)
				}
			}
			fls[i] = &flight{f: cf, d: d, eta: t, drops: dropped,
				t0: e.clock, downT: downEnd, trainT: trainDone}
		}
		fl := fls[i]
		e.busy[fl.d.Client] = true
		kind := evArrive
		if fl.drops {
			kind = evDrop
		}
		e.push(fl.eta, kind, fl)
		e.logf("%.3f dispatch c%d %s eta=%.3f%s",
			e.clock, fl.d.Client, fl.d.Sent.Name(), fl.eta, map[bool]string{true: " will-drop"}[fl.drops])
	}
	return fls, nil
}

// abandon joins and releases every flight of a failed burst, so no
// training outlives the step that reports the error and the in-flight set
// empties.
func (e *Engine) abandon(open []*core.Flight) {
	for _, cf := range open {
		cf.Wait()
		e.srv.Release(cf)
		delete(e.busy, cf.Slot.Client)
	}
}

// join waits for a flight's pending training (a no-op for skipped or
// already-joined flights) and surfaces its error. Events that consume the
// trained result call it before recording.
func (e *Engine) join(fl *flight) error {
	fl.f.Wait()
	if err := fl.f.Err(); err != nil {
		return fmt.Errorf("sched: t=%.3f client %d: %w", e.clock, fl.d.Client, err)
	}
	return nil
}

// release hands the flight's client back to the selectable pool.
func (e *Engine) release(fl *flight) {
	e.srv.Release(fl.f)
	delete(e.busy, fl.d.Client)
}

// nextWindowOpen returns the earliest time a currently-offline, not-busy
// client comes back up, or +Inf if none is offline. A sampled population
// probes: the probed minimum upper-bounds the true one, which only delays
// a wake-up — every probed down client yields a finite bound, so progress
// is preserved whenever the fleet is mostly offline.
func (e *Engine) nextWindowOpen() float64 {
	open := math.Inf(1)
	if e.sampled {
		n := e.srv.NumClients()
		for i := 0; i < probeCount; i++ {
			c := e.probe.Intn(n)
			if e.busy[c] {
				continue
			}
			if up, _, until := e.trace.Window(c, e.clock); !up && until < open {
				open = until
			}
		}
		return open
	}
	for c := 0; c < e.srv.NumClients(); c++ {
		if e.busy[c] {
			continue
		}
		if up, _, until := e.trace.Window(c, e.clock); !up && until < open {
			open = until
		}
	}
	return open
}

// waitEligible advances virtual time until at least one client is
// dispatchable, processing any queue events passed over (stragglers from
// closed rounds release their clients — or bank their uploads — here). It
// fails if nothing can ever become eligible again.
func (e *Engine) waitEligible() error {
	for {
		if e.anyEligible() {
			return nil
		}
		tNext := math.Inf(1)
		if len(e.events) > 0 {
			tNext = e.events[0].t
		}
		// A down client's window end is the other signal that can change
		// eligibility.
		if open := e.nextWindowOpen(); open < tNext {
			tNext = open
		}
		if math.IsInf(tNext, 1) {
			return fmt.Errorf("sched: stalled at t=%.3f — no client can become available", e.clock)
		}
		if len(e.events) > 0 && e.events[0].t <= tNext {
			ev := e.pop()
			e.clock = ev.t
			if err := e.settleResidual(ev); err != nil {
				return err
			}
			continue
		}
		e.clock = tNext
	}
}

// settleResidual handles an event for a flight from an already-closed
// round. A flight finalised at close time only releases its client
// (finishResidual); a deadline-reuse straggler — left open at close
// precisely so its upload could still be observed — banks its result for
// the next aggregation instead.
func (e *Engine) settleResidual(ev *event) error {
	if !ev.fl.recorded && ev.kind == evArrive {
		return e.bankResidual(ev.fl)
	}
	e.finishResidual(ev)
	return nil
}

// finishResidual handles an event for a flight that was already finalised
// when its round closed: the client is released and the outcome logged,
// but ledger and tables were settled at close time.
func (e *Engine) finishResidual(ev *event) {
	e.release(ev.fl)
	e.logf("%.3f late-%s c%d %s", e.clock, ev.kind, ev.fl.d.Client, ev.fl.d.Got.Name())
}

// bankResidual collects a deadline-reuse straggler whose upload just
// arrived: the training is joined, the dispatch is ledgered LateReused
// (recorded exactly once — the flag flips here, so a banked flight can
// never be settled again), and the update joins the bank for the next
// aggregation, weighted by the staleness discount 1/(1+s)^α anchored to
// the version the dispatch was cut from.
func (e *Engine) bankResidual(fl *flight) error {
	if err := e.join(fl); err != nil {
		return err
	}
	e.release(fl)
	fl.recorded = true
	stale := e.srv.Staleness(fl.f)
	d, u := e.srv.Record(fl.f, core.LateReused)
	e.accum.Add(d)
	if d.Failed {
		// A capacity failure that also straggled: nothing to reuse, the
		// ledger entry is plain waste.
		e.logf("%.3f late-failed c%d %s", e.clock, d.Client, d.Got.Name())
	} else if d.Rejected {
		e.logf("%.3f late-rejected c%d %s", e.clock, d.Client, d.Got.Name())
	} else {
		e.logf("%.3f late-reuse c%d %s stale=%d", e.clock, d.Client, d.Got.Name(), stale)
	}
	if u != nil {
		u.Weight *= StalenessDiscount(stale, e.cfg.StalenessExp)
		e.noteMerge(stale)
		e.bank = append(e.bank, *u)
	}
	e.emitFlight(fl, d, core.LateReused)
	return nil
}

// launchBatch opens flights for the slots in order (deterministic IDs)
// and hands them to launchFlights.
func (e *Engine) launchBatch(slots []core.Slot) ([]*flight, error) {
	trainer, err := e.srv.RoundTrainer(slots)
	if err != nil {
		return nil, fmt.Errorf("sched: t=%.3f %w", e.clock, err)
	}
	open := make([]*core.Flight, len(slots))
	for i, sl := range slots {
		open[i] = e.srv.OpenFlight(sl)
	}
	return e.launchFlights(trainer, open)
}

// commitRecorded applies one aggregation from finalised dispatches and
// logs it.
func (e *Engine) commitRecorded(round int, stats core.RoundStats, updates []agg.Update) (Commit, error) {
	stats.Round = round
	if err := e.srv.ApplyUpdates(updates); err != nil {
		return Commit{}, fmt.Errorf("sched: t=%.3f round %d aggregate: %w", e.clock, round, err)
	}
	e.srv.PushStats(stats)
	c := Commit{Round: round, Time: e.clock, Merged: len(updates)}
	for _, d := range stats.Dispatches {
		switch {
		case d.Dropped:
			c.Dropped++
		case d.Failed:
			c.Failed++
		case d.Rejected:
			c.Rejected++
		case d.LateReused:
			c.LateReused++
		case d.Late:
			c.Late++
		default:
			if d.Clipped {
				c.Clipped++
			}
		}
	}
	e.commits = append(e.commits, c)
	// The rejected/clipped suffix appears only when nonzero: honest runs
	// keep the pinned log line byte-identical to previous releases.
	suffix := ""
	if c.Rejected > 0 || c.Clipped > 0 {
		suffix = fmt.Sprintf(" rejected=%d clipped=%d", c.Rejected, c.Clipped)
	}
	e.logf("%.3f commit round=%d merged=%d failed=%d late=%d reused=%d dropped=%d%s",
		e.clock, round, c.Merged, c.Failed, c.Late, c.LateReused, c.Dropped, suffix)
	if e.obs.Enabled() {
		e.obs.Span(obs.Span{Kind: obs.KindCommit, Time: e.clock, Client: -1,
			Round: round, Edge: e.spanEdge, Merged: c.Merged, Failed: c.Failed,
			Late: c.Late, Reused: c.LateReused, Dropped: c.Dropped,
			Rejected: c.Rejected, Clipped: c.Clipped})
	}
	return c, nil
}

// stepSync runs one barrier round: plan K dispatches among the available
// clients, wait for every one of them to arrive or drop, then aggregate in
// slot order — Algorithm 1's synchronous round on the virtual clock.
func (e *Engine) stepSync() (Commit, error) {
	if err := e.waitEligible(); err != nil {
		return Commit{}, err
	}
	round := e.srv.NextRound()
	slots := e.srv.PlanSlots(e.cfg.K, e.eligible)
	fls, err := e.launchBatch(slots)
	if err != nil {
		return Commit{}, err
	}
	for remaining := len(fls); remaining > 0; remaining-- {
		ev := e.pop()
		e.clock = ev.t
		if err := e.join(ev.fl); err != nil {
			return Commit{}, err
		}
		e.release(ev.fl)
		e.logf("%.3f %s c%d %s", e.clock, ev.kind, ev.fl.d.Client, ev.fl.d.Got.Name())
	}
	stats := core.RoundStats{}
	var updates []agg.Update
	for _, fl := range fls {
		oc := core.Merged
		if fl.drops {
			oc = core.Dropped
		}
		stale := e.srv.Staleness(fl.f)
		d, u := e.srv.Record(fl.f, oc)
		stats.Add(d)
		if u != nil {
			e.noteMerge(stale)
			updates = append(updates, *u)
		}
		e.emitFlight(fl, d, oc)
	}
	return e.commitRecorded(round, stats, updates)
}

// stepDeadline runs one over-provisioned round: dispatch K+Δ, close as
// soon as K responses are in (or the absolute deadline passes with at
// least one). At close, stragglers are finalised as Late/Dropped waste —
// or, with reuse (the deadline-reuse policy), left open so their uploads
// can be banked when they eventually arrive and merged into a later
// aggregation under the staleness discount, alongside any bank the
// previous rounds accumulated.
func (e *Engine) stepDeadline(reuse bool) (Commit, error) {
	if err := e.waitEligible(); err != nil {
		return Commit{}, err
	}
	round := e.srv.NextRound()
	slots := e.srv.PlanSlots(e.cfg.K+e.cfg.Extra, e.eligible)
	fls, err := e.launchBatch(slots)
	if err != nil {
		return Commit{}, err
	}
	target := e.cfg.K
	if target > len(fls) {
		target = len(fls)
	}
	deadline := math.Inf(1)
	if e.cfg.Deadline > 0 {
		deadline = e.clock + e.cfg.Deadline
	}
	thisRound := make(map[*flight]bool, len(fls))
	for _, fl := range fls {
		thisRound[fl] = true
	}
	// pending counts this round's flights still in the queue: once they
	// are exhausted (everything else dropped) the round closes with what
	// it has — prior rounds' residual events must not extend the wait.
	pending := len(fls)
	arrived := 0
	for arrived < target && pending > 0 {
		// Past the deadline with something in hand: stop waiting. (With an
		// empty hand the round stays open until the first response, which
		// may itself land past the deadline — the clock only ever moves
		// forward, so the close time is the later of the two.)
		if arrived >= 1 && e.events[0].t > deadline {
			if e.clock < deadline {
				e.clock = deadline
			}
			e.logf("%.3f deadline round=%d arrived=%d", e.clock, round, arrived)
			break
		}
		ev := e.pop()
		e.clock = ev.t
		if !thisRound[ev.fl] {
			// A prior round's flight: its client releases either way; a
			// reuse straggler additionally banks its upload.
			if err := e.settleResidual(ev); err != nil {
				return Commit{}, err
			}
			continue
		}
		if err := e.join(ev.fl); err != nil {
			return Commit{}, err
		}
		e.release(ev.fl)
		e.logf("%.3f %s c%d %s", e.clock, ev.kind, ev.fl.d.Client, ev.fl.d.Got.Name())
		pending--
		ev.fl.collected = true
		if ev.kind == evArrive {
			arrived++
		}
	}
	// The bank goes first: its entries arrived (in virtual time) before
	// this round's close, and merging banked updates ahead of fresh ones
	// keeps the aggregation order deterministic.
	stats := core.RoundStats{}
	var updates []agg.Update
	if reuse {
		stats, updates = e.accum, e.bank
		e.accum, e.bank = core.RoundStats{}, nil
	}
	for _, fl := range fls {
		var oc core.Outcome
		switch {
		case fl.collected && !fl.drops:
			oc = core.Merged
		case fl.drops:
			oc = core.Dropped
		case reuse:
			// The straggler's upload is still in flight and will be banked
			// at its arrival event; its ledger entry lands with the
			// aggregation that consumes it.
			continue
		default:
			// A straggler ledgered Late at close: its upload is discarded,
			// so a training still queued behind a worker is abandoned (the
			// ledger view falls back to the plan, which carries identical
			// fields for a discarded outcome).
			oc = core.Late
			fl.f.Cancel()
		}
		fl.recorded = true
		stale := e.srv.Staleness(fl.f)
		d, u := e.srv.Record(fl.f, oc)
		stats.Add(d)
		if u != nil {
			e.noteMerge(stale)
			updates = append(updates, *u)
		}
		e.emitFlight(fl, d, oc)
	}
	return e.commitRecorded(round, stats, updates)
}

// currentTrainer returns the trainer for one-at-a-time dispatches,
// rebuilding it only when an aggregation has moved the global weights.
func (e *Engine) currentTrainer() (core.Trainer, error) {
	if e.trainer == nil || e.trainerVer != e.srv.Version() {
		trainer, err := e.srv.RoundTrainer(nil)
		if err != nil {
			return nil, err
		}
		e.trainer, e.trainerVer = trainer, e.srv.Version()
	}
	return e.trainer, nil
}

// refill tops the in-flight set back up to K, one planned dispatch at a
// time, among currently eligible clients. The burst's flights are opened
// in plan order (deterministic IDs, rng stream identical to one-at-a-time
// dispatching) and then launched together, so their trainings overlap on
// the executor instead of serialising the refill.
func (e *Engine) refill() error {
	var open []*core.Flight
	var trainer core.Trainer
	for e.srv.InFlight() < e.cfg.K {
		slots := e.srv.PlanSlots(1, e.eligible)
		if len(slots) == 0 {
			break // nobody dispatchable right now
		}
		if trainer == nil {
			var err error
			if trainer, err = e.currentTrainer(); err != nil {
				return fmt.Errorf("sched: t=%.3f %w", e.clock, err)
			}
		}
		// Mark the client busy immediately so the next PlanSlots cannot
		// re-pick it (launchFlights marks it again, idempotently).
		e.busy[slots[0].Client] = true
		open = append(open, e.srv.OpenFlight(slots[0]))
	}
	if len(open) == 0 {
		return nil
	}
	_, err := e.launchFlights(trainer, open)
	return err
}

// stepSemiAsync advances the buffered-asynchronous stream until the next
// aggregation: keep K dispatches in flight, fold every arrival into the
// buffer with its staleness discount, and commit once B updates are in.
func (e *Engine) stepSemiAsync() (Commit, error) {
	for {
		if err := e.refill(); err != nil {
			return Commit{}, err
		}
		if len(e.events) == 0 {
			// Nothing in flight and nobody eligible: wait for a window.
			if err := e.waitEligible(); err != nil {
				return Commit{}, err
			}
			continue
		}
		// Below the in-flight target with clients merely offline: if a
		// window opens before the next queued event, jump there and cut
		// the dispatch immediately instead of letting the client idle
		// until an unrelated arrival happens to wake the loop.
		if e.srv.InFlight() < e.cfg.K {
			if open := e.nextWindowOpen(); open < e.events[0].t {
				e.clock = open
				continue
			}
		}
		ev := e.pop()
		e.clock = ev.t
		e.release(ev.fl)
		if ev.kind == evDrop {
			d, _ := e.srv.Record(ev.fl.f, core.Dropped)
			e.accum.Add(d)
			e.logf("%.3f drop c%d %s", e.clock, ev.fl.d.Client, ev.fl.d.Sent.Name())
			e.emitFlight(ev.fl, d, core.Dropped)
			continue
		}
		if err := e.join(ev.fl); err != nil {
			return Commit{}, err
		}
		stale := e.srv.Staleness(ev.fl.f)
		d, u := e.srv.Record(ev.fl.f, core.Merged)
		e.accum.Add(d)
		e.logf("%.3f arrive c%d %s stale=%d", e.clock, d.Client, d.Got.Name(), stale)
		e.emitFlight(ev.fl, d, core.Merged)
		if u != nil {
			u.Weight *= StalenessDiscount(stale, e.cfg.StalenessExp)
			e.noteMerge(stale)
			e.buffer = append(e.buffer, *u)
		}
		if len(e.buffer) >= e.cfg.Buffer {
			round := e.srv.NextRound()
			c, err := e.commitRecorded(round, e.accum, e.buffer)
			if err != nil {
				return Commit{}, err
			}
			e.buffer, e.accum = nil, core.RoundStats{}
			return c, nil
		}
	}
}

// Compactor is implemented by traces that can discard timeline state
// wholly behind a time bound (RandomTrace's generated segments). The
// engine's clock is monotonic and every trace query it issues is at or
// after the current clock, so Step retires everything behind the clock
// before advancing — without this, generated timelines grow O(time).
type Compactor interface {
	Retire(t float64)
}

// Step advances the schedule until the next aggregation and returns it.
func (e *Engine) Step() (Commit, error) {
	if c, ok := e.trace.(Compactor); ok {
		c.Retire(e.clock)
	}
	switch e.cfg.Policy {
	case Sync:
		return e.stepSync()
	case Deadline:
		return e.stepDeadline(false)
	case DeadlineReuse:
		return e.stepDeadline(true)
	case SemiAsync:
		return e.stepSemiAsync()
	}
	return Commit{}, fmt.Errorf("sched: unknown policy %q", e.cfg.Policy)
}

// Run performs n aggregations, invoking cb (if non-nil) after each; cb
// returning false stops early.
func (e *Engine) Run(n int, cb func(Commit) bool) error {
	for i := 0; i < n; i++ {
		c, err := e.Step()
		if err != nil {
			return err
		}
		if cb != nil && !cb(c) {
			return nil
		}
	}
	return nil
}
