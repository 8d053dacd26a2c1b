package core

import (
	"testing"

	"divot/internal/rng"
	"divot/internal/txline"
)

// monitorAllocBudget is the steady-state allocation ceiling of one healthy
// MonitorOnce round at Parallelism 1. The measurement, scoring, and
// robustness layers all recycle per-endpoint memory (arena, workspace,
// score window), so nothing in the hot path should touch the heap; the
// budget of 2 leaves headroom for runtime-internal noise only. Raising it
// means a regression leaked allocation back into the monitoring loop —
// see ARCHITECTURE.md §8.
const monitorAllocBudget = 2

// TestMonitorOnceAllocationBudget pins the allocation cost of the healthy
// monitoring hot path: after calibration and a warmup round (arena buffers
// sized, inverters promoted, score window filling), a MonitorOnce round
// must stay within monitorAllocBudget allocations.
func TestMonitorOnceAllocationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	l, err := NewLink("alloc0", cfg, txline.DefaultConfig(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm arenas, workspaces, and the score window
		if _, err := l.MonitorOnce(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		alerts, err := l.MonitorOnce()
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != 0 {
			t.Fatalf("clean link raised %d alerts", len(alerts))
		}
	})
	if allocs > monitorAllocBudget {
		t.Fatalf("MonitorOnce allocates %v times per round, budget %d", allocs, monitorAllocBudget)
	}
}

// TestSpotCheckAllocationBudget pins the read-only spot check, the
// measurement behind every uncached attestation, at zero allocations: after
// calibration and a warmup check at Parallelism 1, a clean SpotCheck reuses
// the CPU endpoint's arena and workspace and returns a nil alert slice.
func TestSpotCheckAllocationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	l, err := NewLink("alloc0", cfg, txline.DefaultConfig(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.SpotCheck(); err != nil { // warm the arena and workspace
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		alerts, err := l.SpotCheck()
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != 0 {
			t.Fatalf("clean link raised %d alerts", len(alerts))
		}
	})
	if allocs != 0 {
		t.Fatalf("SpotCheck allocates %v times per check, want 0", allocs)
	}
}

// calibCaptureAllocBudget is the allocation ceiling per enrollment capture
// of a warm re-calibration at Parallelism 1: the ISSUE-10 target of ≤4
// allocs per IIPMeasurement-equivalent capture on the arena/series path
// (the legacy slice-of-waveforms path paid ~180). The fixed per-Calibrate
// overhead (fingerprint fold, enrollment store, threshold bookkeeping)
// amortizes across the captures and must fit inside the same envelope.
const calibCaptureAllocBudget = 4

// TestCalibrateAllocationBudget pins the allocation cost of cold
// enrollment: after one cold Calibrate (arena buffers sized, shared
// composite-CDF warm-up built, tamper floor derived), re-calibrating the
// link must stay within calibCaptureAllocBudget allocations per capture
// across both endpoints.
func TestCalibrateAllocationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	l, err := NewLink("calib-alloc0", cfg, txline.DefaultConfig(), rng.New(98))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	captures := 2 * cfg.EnrollMeasurements // both endpoints enroll
	budget := float64(captures * calibCaptureAllocBudget)
	allocs := testing.AllocsPerRun(5, func() {
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("Calibrate allocates %v times (%d captures), budget %v",
			allocs, captures, budget)
	}
}
