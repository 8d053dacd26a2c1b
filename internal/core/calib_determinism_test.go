package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"divot/internal/fingerprint"
	"divot/internal/itdr"
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

// legacyReenroll is a copy of Link.reenroll as it shipped before the arena
// port: per-capture Measure copies averaged through Pipeline.AverageMasked
// (inlined below, as it was), allocating FromWaveformMasked and
// MaskedErrorFunction floor probes, and a scoring mask dilated on the spot.
func legacyReenroll(l *Link, e *Endpoint) error {
	rob := l.cfg.Robust
	ws := make([]*signal.Waveform, l.cfg.EnrollMeasurements)
	for i := range ws {
		m := e.refl.Measure(e.observed, l.Env)
		e.trackSaturation(m.Saturated, rob)
		ws[i] = m.IIP
	}
	var f fingerprint.IIP
	if e.mask.Empty() {
		var err error
		if f, err = e.pipeline.Average(ws); err != nil {
			return err
		}
	} else {
		acc := signal.New(ws[0].Rate, ws[0].Len())
		for _, w := range ws {
			signal.AddInPlace(acc, w)
		}
		mean := signal.Scale(acc, 1/float64(len(ws)))
		f = e.pipeline.FromWaveform(fingerprint.Repair(mean, e.mask))
	}
	if err := e.store.Enroll(enrollKey, f); err != nil {
		return err
	}
	if e.autoThreshold {
		scoring := e.mask.Dilate(rob.MaskGuard)
		var floor float64
		for i := 0; i < tamperFloorProbes; i++ {
			m := e.refl.Measure(e.observed, l.Env)
			e.trackSaturation(m.Saturated, rob)
			fm := e.pipeline.FromWaveformMasked(m.IIP, e.mask)
			ef := fingerprint.MaskedErrorFunction(fm, f, scoring)
			if v, _, _ := fingerprint.PeakError(ef); v > floor {
				floor = v
			}
		}
		if floor > 0 {
			e.detector.PeakThreshold = 3 * l.cfg.tamperScale() * floor
		}
	}
	e.window = e.window[:0]
	e.sinceReenroll = 0
	e.reenrollments++
	return nil
}

// deadFrom kills ETS bins from a measurement sequence number on: bin m
// reads dead on every measurement from dead[m] on.
type deadFrom map[int]uint64

func (d deadFrom) BeginMeasurement(seq uint64) (itdr.MeasurementFault, bool) {
	return itdr.MeasurementFault{Bin: func(m int) itdr.BinFault {
		from, ok := d[m]
		return itdr.BinFault{Dead: ok && seq >= from}
	}}, true
}

// TestReenrollMatchesLegacyPath proves the arena re-enrollment is a pure
// optimization: on twin links, the legacy Measure-and-AverageMasked refresh
// and the streaming one produce byte-identical enrollment exports,
// bit-identical tamper thresholds and identical masks — on a clean endpoint,
// and on a masked one whose mask grows during the enrollment captures and
// again during the floor probes.
func TestReenrollMatchesLegacyPath(t *testing.T) {
	calib := uint64(DefaultConfig().CalibrationMeasurements())
	enroll := uint64(DefaultConfig().EnrollMeasurements)
	cases := []struct {
		name   string
		masked []int
		dead   deadFrom
	}{
		{"clean", nil, nil},
		// Bin 77 reads dead on the last two enrollment captures, bin 150
		// from the second floor probe on.
		{"masked", []int{60, 200}, deadFrom{77: calib + enroll - 1, 150: calib + enroll + 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twins := [2]*Link{newDetLink(t), newDetLink(t)}
			for _, l := range twins {
				if err := l.Calibrate(); err != nil {
					t.Fatal(err)
				}
				if tc.masked != nil {
					maskDeadBins(l, l.CPU, tc.masked...)
				}
				if tc.dead != nil {
					l.CPU.refl.SetInjector(tc.dead)
				}
			}
			legacy, fast := twins[0], twins[1]
			if err := legacyReenroll(legacy, legacy.CPU); err != nil {
				t.Fatal(err)
			}
			if err := fast.reenroll(fast.CPU); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exportEnrollments(t, legacy), exportEnrollments(t, fast)) {
				t.Error("arena re-enrollment differs from the legacy path")
			}
			if lt, ft := thresholds(legacy), thresholds(fast); lt != ft {
				t.Errorf("tamper thresholds differ: legacy %v, fast %v", lt, ft)
			}
			if want := len(tc.masked) + len(tc.dead); fast.CPU.mask.Count() != want {
				t.Errorf("fast path masked %d bins, want %d", fast.CPU.mask.Count(), want)
			}
			if !slices.Equal(legacy.CPU.mask, fast.CPU.mask) {
				t.Error("masks differ after re-enrollment")
			}
			if want := fast.CPU.mask.Dilate(fast.cfg.Robust.MaskGuard); !slices.Equal(fast.CPU.scoring, want) {
				t.Error("scoring mask is not the dilated mask")
			}
			if _, err := legacy.MonitorOnce(); err != nil {
				t.Fatal(err)
			}
			if _, err := fast.MonitorOnce(); err != nil {
				t.Fatal(err)
			}
			if l, f := math.Float64bits(legacy.CPU.lastScore), math.Float64bits(fast.CPU.lastScore); l != f {
				t.Errorf("post-re-enrollment round diverged: legacy score %x, fast %x", l, f)
			}
		})
	}
}
