package core

import (
	"fmt"
	"io"

	"divot/internal/fingerprint"
)

// ExportEnrollment writes the endpoint's stored bus fingerprint — its EPROM
// image — to w. It fails before calibration.
func (e *Endpoint) ExportEnrollment(w io.Writer) error {
	f, ok := e.store.Lookup(enrollKey)
	if !ok {
		return fmt.Errorf("core: %s endpoint has no enrollment to export", e.Side)
	}
	return f.Encode(w)
}

// decodeEnrollment reads a fingerprint written by ExportEnrollment and checks
// it against the endpoint's instrument grid, installing nothing.
func (e *Endpoint) decodeEnrollment(r io.Reader) (fingerprint.IIP, error) {
	f, err := fingerprint.DecodeIIP(r, e.pipeline)
	if err != nil {
		return fingerprint.IIP{}, fmt.Errorf("core: %s endpoint import: %w", e.Side, err)
	}
	if err := e.checkGrid(f.Raw.Rate, f.Raw.Len()); err != nil {
		return fingerprint.IIP{}, fmt.Errorf("core: import: %w", err)
	}
	return f, nil
}

// RestoreCalibration installs previously exported enrollments on both
// endpoints and re-derives the tamper thresholds from the current clean
// state, leaving the link ready to monitor — the boot path of an
// already-paired system whose calibration happened at manufacturing time
// (§III) and was retained in EPROM. Both images are decoded and grid-checked
// before either is installed, so a rejected image leaves both endpoints
// untouched.
func (l *Link) RestoreCalibration(cpu, module io.Reader) error {
	cpuF, err := l.CPU.decodeEnrollment(cpu)
	if err != nil {
		return err
	}
	modF, err := l.Module.decodeEnrollment(module)
	if err != nil {
		return err
	}
	for _, pair := range []struct {
		e *Endpoint
		f fingerprint.IIP
	}{{l.CPU, cpuF}, {l.Module, modF}} {
		// Cannot fail: decodeEnrollment accepted a non-empty grid-sized image.
		if err := pair.e.store.Enroll(enrollKey, pair.f); err != nil {
			return fmt.Errorf("core: %s endpoint import: %w", pair.e.Side, err)
		}
		if pair.e.detector.PeakThreshold == 0 {
			// Floor probes run on the arena/workspace path like Calibrate's;
			// note the restore threshold is 3× the raw floor (no tamperScale),
			// the historical boot-path contract.
			pair.e.detector.PeakThreshold = 3 * pair.e.noiseFloor(l.Env, pair.f, 4)
		}
		pair.e.authenticated = true
		pair.e.Gate.Set(true)
	}
	l.calibrated = true
	return nil
}

// checkGrid rejects a stored fingerprint that is not on the endpoint's
// instrument grid (equivalent-time sample rate and ETS bin count): scoring it
// against a fresh capture would otherwise panic on the mismatch.
func (e *Endpoint) checkGrid(rate float64, bins int) error {
	if want := e.refl.Config().EquivalentRate(); rate != want || bins != e.bins {
		return fmt.Errorf("%s endpoint: fingerprint grid (%v Hz, %d bins) does not match the instrument's (%v Hz, %d bins)",
			e.Side, rate, bins, want, e.bins)
	}
	return nil
}
