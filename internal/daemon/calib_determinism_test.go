package daemon

import (
	"bytes"
	"testing"

	"divot/internal/store"
)

// coldStartAt cold-starts an n-bus fleet at the given parallelism (spec and
// engine alike; an injected config carries the engine's) on light instruments.
func coldStartAt(t *testing.T, n, parallelism int, backend store.Backend) (*Daemon, Spec) {
	t.Helper()
	spec := benchSpec(n, 0)
	spec.Parallelism = parallelism
	cfg := lightConfig()
	cfg.Engine.Parallelism = parallelism
	d, err := newWarm(spec, Options{Config: cfg, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return d, spec
}

// coldStartSnapshots cold-calibrates a small fleet at the given parallelism
// into a fresh in-memory backend and returns every bus's persisted
// enrollment snapshot payload, keyed by bus id.
func coldStartSnapshots(t *testing.T, parallelism int) map[string][]byte {
	t.Helper()
	backend := store.NewMemory()
	d, spec := coldStartAt(t, 6, parallelism, backend)
	if got := int(d.calibratedN.Load()); got != len(spec.Buses) {
		t.Fatalf("calibrated %d/%d buses at parallelism %d", got, len(spec.Buses), parallelism)
	}
	out := make(map[string][]byte, len(spec.Buses))
	for _, bus := range spec.Buses {
		raw, err := backend.LoadSnapshot(bus.ID, d.specHash)
		if err != nil {
			t.Fatalf("snapshot for %s at parallelism %d: %v", bus.ID, parallelism, err)
		}
		out[bus.ID] = raw
	}
	return out
}

// TestParallelismSnapshotInvariance pins the fleet-level determinism
// contract end to end: a cold start at parallelism 1 and one at 8
// persist byte-identical enrollment snapshots for every bus (the store
// envelope hashes the payload, so byte equality here is hash equality
// there). The knob may only move wall clock, never what the fleet enrolled
// as — a spec tuned for a 4-core edge box and a 64-core rack produce
// interchangeable state directories.
func TestParallelismSnapshotInvariance(t *testing.T) {
	sequential := coldStartSnapshots(t, 1)
	parallel := coldStartSnapshots(t, 8)
	if len(sequential) != len(parallel) {
		t.Fatalf("bus counts differ: %d vs %d", len(sequential), len(parallel))
	}
	for id, want := range sequential {
		got, ok := parallel[id]
		if !ok {
			t.Errorf("bus %s missing from parallel cold start", id)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("bus %s: snapshot at parallelism 8 differs from 1 (%d vs %d bytes)",
				id, len(want), len(got))
		}
	}
	// And the spec hash itself must not depend on the knob: snapshots taken
	// at one setting must load under another.
	da, _ := coldStartAt(t, 1, 1, store.NewMemory())
	db, _ := coldStartAt(t, 1, 8, store.NewMemory())
	if da.specHash != db.specHash {
		t.Errorf("spec hash depends on parallelism: %s vs %s", da.specHash, db.specHash)
	}
}
