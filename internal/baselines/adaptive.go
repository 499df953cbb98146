package baselines

import (
	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/sched"
)

// Adaptive adapts core.Server (AdaptiveFL itself) to the Runner interface
// so the experiment harness can sweep it alongside the baselines. Its
// rounds commit through internal/sched's event-driven engine: each Round()
// advances the schedule by one aggregation (a barrier round for the sync
// and deadline policies, a buffer commit for semiasync), with the virtual
// clock exposed for accuracy-versus-simulated-time curves.
type Adaptive struct {
	Srv *core.Server
	Eng *sched.Engine
	// Label overrides Name() for ablation variants (e.g. "AdaptiveFL+C").
	Label string
}

// SchedAdaptive is the name this runner had while a second, engine-less
// AdaptiveFL runner existed. perfbench still type-asserts it, so the alias
// stays until that directory next changes.
type SchedAdaptive = Adaptive

// NewAdaptive builds an AdaptiveFL runner: the server from cfg, and the
// engine that commits its rounds under the given cost model, availability
// trace (nil means AlwaysOn) and policy, K dispatches wide and on the
// server's parallelism.
func NewAdaptive(cfg core.Config, clients []*core.Client, cost sched.CostModel, trace sched.Trace, policy sched.Policy, label string) (*Adaptive, error) {
	srv, err := core.NewServer(cfg, clients)
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(srv, cost, trace, sched.Config{
		Policy:      policy,
		K:           cfg.ClientsPerRound,
		Epochs:      cfg.Train.LocalEpochs,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = "AdaptiveFL"
	}
	return &Adaptive{Srv: srv, Eng: eng, Label: label}, nil
}

// Name implements Runner.
func (a *Adaptive) Name() string { return a.Label }

// Round implements Runner: one scheduler aggregation.
func (a *Adaptive) Round() error {
	_, err := a.Eng.Step()
	return err
}

// SimTime returns the simulated wall-clock seconds consumed so far.
func (a *Adaptive) SimTime() float64 { return a.Eng.Clock() }

// Evaluate reports the full global model plus the L1/M1/S1 pool members
// extracted from it.
func (a *Adaptive) Evaluate(test *data.Dataset, batch int) (map[string]float64, error) {
	out := map[string]float64{}
	full, err := a.Srv.GlobalModel()
	if err != nil {
		return nil, err
	}
	out["full"] = eval.Accuracy(full, test, batch)
	for _, name := range []string{"S1", "M1", "L1"} {
		m, err := a.Srv.SubmodelByName(name)
		if err != nil {
			// Coarse pools (P=1) still expose S1/M1/L1; other pool shapes
			// may not — skip absent levels.
			continue
		}
		out[name] = eval.Accuracy(m, test, batch)
	}
	return out, nil
}

// Waste reports the communication-waste rate accumulated so far.
func (a *Adaptive) Waste() float64 { return core.CommWasteRate(a.Srv.Stats()) }
