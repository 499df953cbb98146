package exp

import (
	"reflect"
	"testing"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/models"
)

// adaptiveRunner builds an AdaptiveFL-family runner on tinyScale's
// cifar10/ResNet18 cell and commits rounds aggregations.
func adaptiveRunner(t *testing.T, name string, sc Scale, rounds int) *baselines.Adaptive {
	t.Helper()
	fed, err := BuildFederation(models.ResNet18, "cifar10", IID, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(name, fed, sc)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := r.(*baselines.Adaptive)
	if !ok {
		t.Fatalf("%s runner is %T, want *baselines.Adaptive", name, r)
	}
	for i := 0; i < rounds; i++ {
		if err := a.Round(); err != nil {
			t.Fatalf("%s round %d: %v", name, i+1, err)
		}
	}
	return a
}

// TestAdaptiveFamilyGoldens pins every AdaptiveFL-family runner to the
// global-weights hash (HashState) it reached after three rounds at
// tinyScale under the synchronous round loop the sync policy replaced.
// The variant rows cover the codecs, robust aggregation under attack and
// serial execution on the plain runner. (+LiteralRL's bonus only moves
// the L1 row of the resource table, which three rounds at this scale do
// not act on, so its weights match the plain runner's.)
func TestAdaptiveFamilyGoldens(t *testing.T) {
	goldens := []struct {
		name, codec, agg, adversary string
		par                         int
		hash                        uint64
	}{
		{name: "AdaptiveFL", hash: 0x411a14166577eba9},
		{name: "AdaptiveFL+C", hash: 0xaad685e86cfad932},
		{name: "AdaptiveFL+S", hash: 0x5082481a284eaa43},
		{name: "AdaptiveFL+Random", hash: 0xc5474c08784d796b},
		{name: "AdaptiveFL+Greedy", hash: 0x92de8c1a0b1b3b50},
		{name: "AdaptiveFL-Coarse", hash: 0x05eaf0ba919a18b7},
		{name: "AdaptiveFL+LiteralRL", hash: 0x411a14166577eba9},
		{name: "AdaptiveFL", codec: "q8", hash: 0x916e18d01f768342},
		{name: "AdaptiveFL", codec: "delta", hash: 0xf18b71da4c375f87},
		{name: "AdaptiveFL", agg: "clip:tau=8+trim:frac=0.45", adversary: DefaultByzantineAttack, hash: 0xd488de0b4aef653e},
		{name: "AdaptiveFL", par: 1, hash: 0x411a14166577eba9},
	}
	for _, g := range goldens {
		sc := tinyScale()
		sc.Codec, sc.Agg, sc.Adversary = g.codec, g.agg, g.adversary
		if g.par > 0 {
			sc.Parallelism = g.par
		}
		a := adaptiveRunner(t, g.name, sc, 3)
		if got := HashState(a.Srv.Global()); got != g.hash {
			t.Errorf("%s codec=%q agg=%q par=%d: weights hash %#016x, golden %#016x",
				g.name, g.codec, g.agg, sc.Parallelism, got, g.hash)
		}
	}
}

// TestTraceHonouredWithoutSched: an empty -sched is the sync policy, so
// a trace given without it shapes the run exactly as under -sched sync.
func TestTraceHonouredWithoutSched(t *testing.T) {
	run := func(policy, trace string) *baselines.Adaptive {
		sc := tinyScale()
		sc.Sched, sc.Trace = policy, trace
		return adaptiveRunner(t, "AdaptiveFL", sc, 2)
	}
	bare, synced := run("", "straggler"), run("sync", "straggler")
	if HashState(bare.Srv.Global()) != HashState(synced.Srv.Global()) {
		t.Fatal("weights differ between an empty -sched and -sched sync")
	}
	if !reflect.DeepEqual(bare.Srv.Stats(), synced.Srv.Stats()) {
		t.Fatalf("ledgers differ:\nempty %+v\nsync  %+v", bare.Srv.Stats(), synced.Srv.Stats())
	}
	if bare.SimTime() != synced.SimTime() {
		t.Fatalf("simulated time %v under an empty -sched, %v under sync", bare.SimTime(), synced.SimTime())
	}
	// The straggler trace only slows weak devices, so the weights match an
	// AlwaysOn run; the virtual clock shows the trace was applied.
	if always := run("", ""); bare.SimTime() <= always.SimTime() {
		t.Fatalf("straggler trace ignored: %vs simulated, %vs under AlwaysOn", bare.SimTime(), always.SimTime())
	}
	if bare.Name() != "AdaptiveFL" || synced.Name() != "AdaptiveFL[sync]" {
		t.Fatalf("labels %q / %q, want AdaptiveFL / AdaptiveFL[sync]", bare.Name(), synced.Name())
	}
}

// TestWireEstimateWithoutSched: estimate mode prices uplinks at plan time,
// and every round is planned, so the ledger carries the estimate on the
// default path too.
func TestWireEstimateWithoutSched(t *testing.T) {
	sc := tinyScale()
	sc.Codec, sc.EstimateUp = "q8", true
	a := adaptiveRunner(t, "AdaptiveFL", sc, 2)
	var est, actual int64
	for _, st := range a.Srv.Stats() {
		est += st.ReturnedBytesEst
		actual += st.ReturnedBytes
	}
	if est <= 0 || actual <= 0 {
		t.Fatalf("uplink bytes: %d estimated, %d actual; want both > 0", est, actual)
	}
}

// TestByzantineRowUnderSched: a byzantine row run under a scheduling
// policy still reports its weights hash and robust ledger.
func TestByzantineRowUnderSched(t *testing.T) {
	sc := tinyScale()
	sc.Sched = "semiasync"
	row := ByzantineRow{Agg: "clip:tau=1e-9", Adversary: DefaultByzantineAttack}
	if err := runByzantineRow(Cell{"cifar10", models.ResNet18, IID}, sc, &row); err != nil {
		t.Fatal(err)
	}
	if row.Hash == 0 {
		t.Fatal("byzantine row under semiasync reported no weights hash")
	}
	if row.Clipped == 0 {
		t.Fatal("byzantine row under semiasync reported no clips at tau=1e-9")
	}
}
