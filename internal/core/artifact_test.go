package core

import (
	"testing"

	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// TestNotModifiedOnUnchangedSnapshot: when the global model does not move
// between dispatches (an empty commit), re-dispatching the same member to
// the same client is attributed not-modified — the ETag revalidation path.
func TestNotModifiedOnUnchangedSnapshot(t *testing.T) {
	pool := testPool(t)
	clients, _ := codecTestClients(t, 4, pool)
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4,
		Train:           TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.1, Momentum: 0.5},
		Seed:            31, Codec: wire.Q8{},
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	// Drive dispatches by hand at a pinned snapshot: two flights for the
	// same (client, member) slot without an intervening commit.
	slots := srv.PlanSlots(4, nil)
	trainer, err := srv.RoundTrainer(slots)
	if err != nil {
		t.Fatal(err)
	}
	encodesAfterWarm := srv.Artifacts().Encodes()
	var st RoundStats
	for pass := 0; pass < 2; pass++ {
		for _, sl := range slots {
			f := srv.OpenFlight(sl)
			srv.Execute(trainer, f)
			f.Wait()
			srv.Release(f)
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
			d, _ := srv.Record(f, Merged)
			st.Add(d)
		}
	}
	if st.DownNotModified != len(slots) {
		t.Fatalf("DownNotModified = %d, want %d (every second-pass dispatch)",
			st.DownNotModified, len(slots))
	}
	if srv.Artifacts().Encodes() != encodesAfterWarm {
		t.Fatalf("re-dispatch at a pinned snapshot re-encoded: %d -> %d",
			encodesAfterWarm, srv.Artifacts().Encodes())
	}
}
