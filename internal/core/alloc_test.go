package core

import (
	"fmt"
	"runtime"
	"testing"

	"divot/internal/rng"
	"divot/internal/txline"
)

// monitorAllocBudget is the steady-state allocation ceiling of one healthy
// MonitorOnce round at any Parallelism. The measurement, scoring, and
// robustness layers all recycle per-endpoint memory (arena, workspace,
// score window), so nothing in the hot path should touch the heap; the
// budget of 2 leaves headroom for runtime-internal noise only. Raising it
// means a regression leaked allocation back into the monitoring loop —
// see ARCHITECTURE.md §8.
const monitorAllocBudget = 2

// TestMonitorOnceAllocationBudget pins the allocation cost of the healthy
// monitoring hot path: after calibration and a warmup round (arena buffers
// sized, inverters promoted, score window filling), a MonitorOnce round
// must stay within monitorAllocBudget allocations, sequential and at the
// default Parallelism — with clean endpoints and with both endpoints
// running a dead-bin mask, whose scoring mask is dilated once, when it
// changes, not per round.
func TestMonitorOnceAllocationBudget(t *testing.T) {
	forEachMaskedParallelism(t, func(t *testing.T, cfg Config, masked bool) {
		l, err := NewLink("alloc0", cfg, txline.DefaultConfig(), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
		if masked {
			maskDeadBins(l, l.CPU, 60, 200)
			maskDeadBins(l, l.Module, 120)
		}
		for i := 0; i < 3; i++ { // warm arenas, workspaces, and the score window
			if _, err := l.MonitorOnce(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := allocsPerRun(10, func() {
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
	})
}

// forEachParallelism runs body under two procs at Parallelism 1 and at the
// default Parallelism 0, which resolves to both procs: a capture that
// fanned out over goroutines would allocate in the second arm only.
func forEachParallelism(t *testing.T, body func(t *testing.T, cfg Config)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, par := range []int{1, 0} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Parallelism = par
			body(t, cfg)
		})
	}
}

// TestSpotCheckAllocationBudget pins the read-only spot check, the
// measurement behind every uncached attestation, at zero allocations: after
// calibration and a warmup check, a clean SpotCheck reuses the CPU
// endpoint's arena and workspace and returns a nil alert slice, sequential
// and at the default Parallelism — also when the CPU endpoint scores around
// a dead-bin mask.
func TestSpotCheckAllocationBudget(t *testing.T) {
	forEachMaskedParallelism(t, func(t *testing.T, cfg Config, masked bool) {
		l, err := NewLink("alloc0", cfg, txline.DefaultConfig(), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
		if masked {
			maskDeadBins(l, l.CPU, 60, 200)
		}
		if _, err := l.SpotCheck(); err != nil { // warm the arena and workspace
			t.Fatal(err)
		}
		allocs := allocsPerRun(10, func() {
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
	})
}

// forEachMaskedParallelism runs body under forEachParallelism's two arms
// with clean endpoints, then under both again as "masked" with masked ones.
func forEachMaskedParallelism(t *testing.T, body func(t *testing.T, cfg Config, masked bool)) {
	forEachParallelism(t, func(t *testing.T, cfg Config) { body(t, cfg, false) })
	t.Run("masked", func(t *testing.T) {
		forEachParallelism(t, func(t *testing.T, cfg Config) { body(t, cfg, true) })
	})
}

// maskDeadBins masks the given bins at e the way monitoring does: it
// reports them rail-saturated on DeadBinStreak consecutive measurements.
func maskDeadBins(l *Link, e *Endpoint, bins ...int) {
	sat := make([]bool, e.bins)
	for _, b := range bins {
		sat[b] = true
	}
	for i := 0; i < l.cfg.Robust.DeadBinStreak; i++ {
		e.trackSaturation(sat, l.cfg.Robust)
	}
	if e.mask.Count() != len(bins) {
		panic(fmt.Sprintf("masked %d bins, want %d", e.mask.Count(), len(bins)))
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, which
// would hide any goroutine fan-out inside f: it warms f once, then counts
// the mallocs of runs further calls at the current GOMAXPROCS, truncating
// the average as AllocsPerRun does.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// calibCaptureAllocBudget is the allocation ceiling per enrollment capture
// of a warm re-calibration: the target of ≤4 allocs per
// IIPMeasurement-equivalent capture on the arena path (the legacy
// slice-of-waveforms path paid ~180). The fixed per-Calibrate overhead
// (fingerprint fold, enrollment store, threshold bookkeeping) amortizes
// across the captures and must fit inside the same envelope.
const calibCaptureAllocBudget = 4

// TestCalibrateAllocationBudget pins the allocation cost of cold
// enrollment: after one cold Calibrate (arena buffers sized, shared
// composite-CDF warm-up built, tamper floor derived), re-calibrating the
// link must stay within calibCaptureAllocBudget allocations per capture
// across both endpoints, sequential and at the default Parallelism — a link
// enrolls on the calling goroutine at either.
func TestCalibrateAllocationBudget(t *testing.T) {
	forEachParallelism(t, func(t *testing.T, cfg Config) {
		l, err := NewLink("calib-alloc0", cfg, txline.DefaultConfig(), rng.New(98))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
		captures := 2 * cfg.EnrollMeasurements // both endpoints enroll
		budget := float64(captures * calibCaptureAllocBudget)
		allocs := allocsPerRun(5, func() {
			if err := l.Calibrate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Fatalf("Calibrate allocates %v times (%d captures), budget %v",
				allocs, captures, budget)
		}
	})
}
