package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/tensor"
)

// Executor bounds concurrent local-training executions. The event-driven
// scheduler (internal/sched) pushes every flight execution through one of
// these, so a whole process shares the same
// notion of training parallelism — and, through the arena pool below, the
// same recycled training state. An Executor is cheap (a semaphore): the
// expensive reusable state lives in the process-wide arena pool, not in
// the executor itself.
type Executor struct {
	sem      chan struct{}
	executed atomic.Int64
	skipped  atomic.Int64
	obs      *obs.Observer
}

// NewExecutor builds an executor bounding concurrent executions to
// parallelism; <= 0 means GOMAXPROCS.
func NewExecutor(parallelism int) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Executor{sem: make(chan struct{}, parallelism)}
}

// Width returns the executor's concurrency bound.
func (x *Executor) Width() int { return cap(x.sem) }

// SetObserver attaches an observer whose queue-depth gauges (fl_exec_queued,
// fl_exec_running) track this executor's occupancy. Gauges only — queue
// residence is wall-clock state and never enters the span stream.
func (x *Executor) SetObserver(o *obs.Observer) { x.obs = o }

// Stats reports how many enqueued executions actually trained and how
// many were cancelled before a worker picked them up (a deadline round
// closing on stragglers whose uploads would be discarded anyway). The
// split between the two is timing-dependent; their sum is not.
func (x *Executor) Stats() (executed, skipped int64) {
	return x.executed.Load(), x.skipped.Load()
}

// run executes task on its own goroutine, bounded by the semaphore.
func (x *Executor) run(task func()) {
	x.obs.ExecDepth(1, 0)
	go func() {
		x.sem <- struct{}{}
		x.obs.ExecDepth(-1, 1)
		defer func() {
			<-x.sem
			x.obs.ExecDepth(0, -1)
		}()
		task()
	}()
}

// Training arenas.
//
// Every local training used to build a fresh model (parameter, gradient
// and momentum tensors, layer caches) and drop it after one dispatch,
// even though a round trains the same handful of pool members over and
// over. An arena keeps those structures alive between the dispatches a
// worker executes, keyed by (model config, width vector): renting an
// arena, training through it, and returning it leaves the weights fully
// overwritten by LoadState, the gradients zeroed by the per-batch
// ZeroGrads, and the momentum zeroed by SGD.Reset — so reuse is
// bit-identical to building from scratch (pinned by TestArenaReuseExact).
//
// Each arena also owns one tensor.Workspace, bound to every model it
// caches: a training step's activations, input gradients and backward
// caches come from it and are handed back by the Reset before each batch,
// so a step in steady state allocates almost nothing. One workspace per
// arena, not one per model, keeps the retained memory at arenas × the
// largest step rather than arenas × models × step (pinned bit-identical to
// unbound training by TestWorkspaceBitIdentical).
//
// Arenas follow rent/return semantics: at most one goroutine owns an
// arena at a time. Returned arenas wait on a free list capped at
// GOMAXPROCS, so steady-state concurrency N keeps min(N, GOMAXPROCS)
// arenas; an arena returned to a full list is dropped. (A sync.Pool kept
// more: it cannot hand a goroutine an arena parked in another P's private
// slot, so it built new ones while idle ones waited.)

// arenaKey identifies one model construction.
type arenaKey struct {
	cfg    models.Config
	widths string
}

// arenaEntry is one cached model with its recycled optimizer.
type arenaEntry struct {
	model  *models.Model
	params []*nn.Param
	opt    *nn.SGD
}

// arenaMaxEntries bounds how many distinct model constructions one arena
// retains (a p=3 pool has nine members; full-width paper models are tens
// of MB each, so the cap keeps a worker's footprint bounded even when a
// run cycles through many width vectors).
const arenaMaxEntries = 12

// trainArena caches built models and optimizer state, and the workspace
// they all train in, across the local trainings one worker executes.
type trainArena struct {
	entries map[arenaKey]*arenaEntry
	ws      *tensor.Workspace
}

func widthsSig(widths []int) string {
	if widths == nil {
		return "full"
	}
	return fmt.Sprint(widths)
}

// modelFor returns a model (and optimizer) for the given construction,
// recycled when the arena has seen it before and bound to the arena's
// workspace. The caller must load state before training; the optimizer
// comes hyperparameter-set and with zeroed momentum.
func (a *trainArena) modelFor(cfg models.Config, widths []int, tc TrainConfig) (*models.Model, []*nn.Param, *nn.SGD, error) {
	key := arenaKey{cfg: cfg, widths: widthsSig(widths)}
	if e, ok := a.entries[key]; ok {
		e.opt.LR, e.opt.Momentum, e.opt.WeightDecay = tc.LR, tc.Momentum, tc.WeightDecay
		e.opt.Reset()
		return e.model, e.params, e.opt, nil
	}
	m, err := models.Build(cfg, widths)
	if err != nil {
		return nil, nil, nil, err
	}
	m.Bind(a.ws)
	if len(a.entries) >= arenaMaxEntries {
		for k := range a.entries {
			delete(a.entries, k)
			break
		}
	}
	e := &arenaEntry{model: m, params: m.Params(), opt: nn.NewSGD(tc.LR, tc.Momentum, tc.WeightDecay)}
	a.entries[key] = e
	return e.model, e.params, e.opt, nil
}

// arenaPool is the process-wide free list of idle arenas.
var arenaPool struct {
	mu   sync.Mutex
	free []*trainArena
}

func rentArena() *trainArena {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	if n := len(arenaPool.free); n > 0 {
		a := arenaPool.free[n-1]
		arenaPool.free[n-1] = nil
		arenaPool.free = arenaPool.free[:n-1]
		return a
	}
	return &trainArena{entries: map[arenaKey]*arenaEntry{}, ws: tensor.NewWorkspace()}
}

func returnArena(a *trainArena) {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	if len(arenaPool.free) < runtime.GOMAXPROCS(0) {
		arenaPool.free = append(arenaPool.free, a)
	}
}
