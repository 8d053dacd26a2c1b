package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"divot/internal/fingerprint"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/txline"
)

// legacyCalibrate is a verbatim copy of Link.Calibrate as it shipped before
// the arena cold-enrollment fast path: per-measurement waveform
// slices, Pipeline.Average over all of them, allocating ErrorFunction floor
// probes. It is the reference the fast path must reproduce byte-for-byte —
// fingerprints, thresholds, and instrument state alike.
func legacyCalibrate(l *Link) error {
	for _, e := range []*Endpoint{l.CPU, l.Module} {
		e.resetRobustState(l.cfg)
		ws := make([]*signal.Waveform, l.cfg.EnrollMeasurements)
		for i := range ws {
			ws[i] = e.refl.Measure(e.observed, l.Env).IIP
		}
		f, err := e.pipeline.Average(ws)
		if err != nil {
			return fmt.Errorf("core: calibrating %s endpoint: %w", e.Side, err)
		}
		if err := e.store.Enroll(enrollKey, f); err != nil {
			return fmt.Errorf("core: enrolling %s endpoint: %w", e.Side, err)
		}
		if e.detector.PeakThreshold == 0 {
			var floor float64
			for i := 0; i < tamperFloorProbes; i++ {
				fm := e.measure(l.Env)
				if v, _, _ := fingerprint.PeakError(fingerprint.ErrorFunction(fm, f)); v > floor {
					floor = v
				}
			}
			e.detector.PeakThreshold = 3 * l.cfg.tamperScale() * floor
		}
		e.authenticated = true
		e.Gate.Set(true)
	}
	l.calibrated = true
	return nil
}

// newDetLink builds a link from a fixed universe for the determinism tests;
// every call returns a bit-identical twin.
func newDetLink(t *testing.T) *Link {
	t.Helper()
	l, err := NewLink("det0", DefaultConfig(), txline.DefaultConfig(), rng.New(4242))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// exportEnrollments serializes both endpoints' enrollments.
func exportEnrollments(t *testing.T, l *Link) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.CPU.ExportEnrollment(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Module.ExportEnrollment(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// thresholds returns the two endpoints' derived tamper thresholds as raw
// float bits, so comparisons are exact, not within-epsilon.
func thresholds(l *Link) [2]uint64 {
	return [2]uint64{
		math.Float64bits(l.CPU.detector.PeakThreshold),
		math.Float64bits(l.Module.detector.PeakThreshold),
	}
}

// TestCalibrateMatchesLegacyPath proves the arena/series enrollment path is
// a pure optimization: on twin links, the legacy slice-and-Average
// calibration and the streaming fast path produce byte-identical enrollment
// exports and bit-identical auto-derived tamper thresholds.
func TestCalibrateMatchesLegacyPath(t *testing.T) {
	legacy := newDetLink(t)
	if err := legacyCalibrate(legacy); err != nil {
		t.Fatal(err)
	}
	fast := newDetLink(t)
	if err := fast.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportEnrollments(t, legacy), exportEnrollments(t, fast)) {
		t.Error("arena-path enrollment differs from the legacy path")
	}
	if lt, ft := thresholds(legacy), thresholds(fast); lt != ft {
		t.Errorf("tamper thresholds differ: legacy %v, fast %v", lt, ft)
	}
	// The paths must also leave the instruments in the same state: the next
	// monitoring round on each twin sees the same scores.
	la, err := legacy.MonitorOnce()
	if err != nil {
		t.Fatal(err)
	}
	fa, err := fast.MonitorOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(la) != 0 || len(fa) != 0 {
		t.Fatalf("clean twins raised alerts: legacy %d, fast %d", len(la), len(fa))
	}
	if l, f := math.Float64bits(legacy.CPU.lastScore), math.Float64bits(fast.CPU.lastScore); l != f {
		t.Errorf("post-calibration round diverged: legacy score %x, fast %x", l, f)
	}
}
