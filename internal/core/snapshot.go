package core

// Durable link snapshots. Calibration is the expensive step of the protocol —
// EnrollMeasurements averaged acquisitions plus tamper-floor probes per
// endpoint — and its product (the enrolled CDF fingerprint, the derived
// tamper threshold, the dead-bin mask, the drift baseline) is exactly the
// state a daemon must not lose across a restart. LinkSnapshot is that state
// in a flat, versioned, JSON-encodable form; Link.Snapshot captures it and
// Link.Restore installs it on a freshly manufactured link, validating
// everything before mutating anything — a rejected snapshot leaves the link
// untouched and uncalibrated, so the caller's fallback is always plain cold
// Calibrate.
//
// Restore trusts its input only as far as internal consistency: the caller
// (internal/store's backend) is responsible for integrity (checksums) and
// provenance (spec-hash validation). The determinism contract makes the
// restore sound: the same seed and spec re-manufacture bit-identical lines
// and instruments, so a fingerprint enrolled before the restart still matches
// the line the restored link measures.

import (
	"fmt"

	"divot/internal/fingerprint"
	"divot/internal/signal"
	"divot/internal/telemetry"
)

// LinkSnapshotVersion guards against decoding incompatible snapshots.
const LinkSnapshotVersion = 1

// EndpointSnapshot is one endpoint's durable state: the enrolled fingerprint
// (post-pipeline Raw view, like the EPROM image codec), the derived tamper
// threshold, and the robustness bookkeeping that reproduces the endpoint's
// health verdict.
type EndpointSnapshot struct {
	// Rate and Samples are the enrolled fingerprint's Raw waveform.
	Rate    float64   `json:"rate"`
	Samples []float64 `json:"samples"`
	// PeakThreshold is the tamper detector's (possibly auto-calibrated)
	// threshold in volts²; AutoThreshold records whether re-enrollment may
	// re-derive it.
	PeakThreshold float64 `json:"peak_threshold"`
	AutoThreshold bool    `json:"auto_threshold,omitempty"`
	// MaskedBins are the indices of persistently masked dead ETS bins.
	MaskedBins []int `json:"masked_bins,omitempty"`
	// Window is the rolling accepted-score drift baseline, oldest first.
	Window []float64 `json:"window,omitempty"`
	// Counters reproducing EndpointHealth across the restart.
	LastScore     float64 `json:"last_score,omitempty"`
	Reenrollments int     `json:"reenrollments,omitempty"`
	SuspectRounds int     `json:"suspect_rounds,omitempty"`
	LastSuspect   bool    `json:"last_suspect,omitempty"`
	Failures      int     `json:"failures,omitempty"`
	SinceReenroll int     `json:"since_reenroll,omitempty"`
	// Authenticated is the endpoint's latest monitoring verdict; the gate is
	// restored to match.
	Authenticated bool `json:"authenticated"`
}

// LinkSnapshot is one link's durable state.
type LinkSnapshot struct {
	Version int    `json:"version"`
	ID      string `json:"id"`
	// Rounds is the link's monitoring round counter (events after a restore
	// continue the round numbering instead of restarting at 1).
	Rounds uint64 `json:"rounds"`
	// Generation counts re-enrollments across both endpoints — a quick
	// staleness signal for operators ("this enrollment is the Nth").
	Generation int              `json:"generation"`
	CPU        EndpointSnapshot `json:"cpu"`
	Module     EndpointSnapshot `json:"module"`
}

// Snapshot captures the link's durable state. It fails before calibration —
// there is nothing worth persisting yet.
func (l *Link) Snapshot() (LinkSnapshot, error) {
	if !l.calibrated {
		return LinkSnapshot{}, fmt.Errorf("link %q: %w", l.ID, ErrNotCalibrated)
	}
	cpu, err := l.CPU.snapshot()
	if err != nil {
		return LinkSnapshot{}, fmt.Errorf("link %q: %w", l.ID, err)
	}
	mod, err := l.Module.snapshot()
	if err != nil {
		return LinkSnapshot{}, fmt.Errorf("link %q: %w", l.ID, err)
	}
	return LinkSnapshot{
		Version:    LinkSnapshotVersion,
		ID:         l.ID,
		Rounds:     l.rounds,
		Generation: cpu.Reenrollments + mod.Reenrollments,
		CPU:        cpu,
		Module:     mod,
	}, nil
}

// snapshot captures one endpoint's durable state.
func (e *Endpoint) snapshot() (EndpointSnapshot, error) {
	f, ok := e.store.Lookup(enrollKey)
	if !ok {
		return EndpointSnapshot{}, fmt.Errorf("%s endpoint: %w", e.Side, ErrEnrollmentLost)
	}
	s := EndpointSnapshot{
		Rate:          f.Raw.Rate,
		Samples:       append([]float64(nil), f.Raw.Samples...),
		PeakThreshold: e.detector.PeakThreshold,
		AutoThreshold: e.autoThreshold,
		Window:        append([]float64(nil), e.window...),
		LastScore:     e.lastScore,
		Reenrollments: e.reenrollments,
		SuspectRounds: e.suspectRounds,
		LastSuspect:   e.lastSuspect,
		Failures:      e.failures,
		SinceReenroll: e.sinceReenroll,
		Authenticated: e.authenticated,
	}
	for i, dead := range e.mask {
		if dead {
			s.MaskedBins = append(s.MaskedBins, i)
		}
	}
	return s, nil
}

// validate rejects snapshots that cannot have come from a compatible link.
func (s EndpointSnapshot) validate(e *Endpoint) error {
	side, bins := e.Side, e.bins
	if s.Rate <= 0 || len(s.Samples) == 0 {
		return fmt.Errorf("%s endpoint: corrupt fingerprint (rate %v, %d samples)", side, s.Rate, len(s.Samples))
	}
	if err := e.checkGrid(s.Rate, len(s.Samples)); err != nil {
		return err
	}
	if s.PeakThreshold <= 0 {
		return fmt.Errorf("%s endpoint: non-positive tamper threshold %v", side, s.PeakThreshold)
	}
	for _, i := range s.MaskedBins {
		if i < 0 || i >= bins {
			return fmt.Errorf("%s endpoint: masked bin %d out of range [0,%d)", side, i, bins)
		}
	}
	if s.Reenrollments < 0 || s.SuspectRounds < 0 || s.Failures < 0 || s.SinceReenroll < 0 {
		return fmt.Errorf("%s endpoint: negative counter", side)
	}
	if len(s.Window) > 4096 {
		return fmt.Errorf("%s endpoint: drift window of %d entries is not plausible", side, len(s.Window))
	}
	return nil
}

// Restore installs a snapshot on an uncalibrated (or recalibrating) link:
// enrollments, tamper thresholds, dead-bin masks, drift baselines, health
// counters, gates. Every field is validated before any state moves — on error
// the link is exactly as it was, so the caller can fall back to Calibrate.
// On success the link is calibrated, its round counter continues from the
// snapshot, and one EventRestored is emitted.
func (l *Link) Restore(s LinkSnapshot) error {
	if s.Version != LinkSnapshotVersion {
		return fmt.Errorf("link %q: snapshot version %d, want %d", l.ID, s.Version, LinkSnapshotVersion)
	}
	if s.ID != l.ID {
		return fmt.Errorf("link %q: snapshot belongs to link %q", l.ID, s.ID)
	}
	if err := s.CPU.validate(l.CPU); err != nil {
		return fmt.Errorf("link %q: %w", l.ID, err)
	}
	if err := s.Module.validate(l.Module); err != nil {
		return fmt.Errorf("link %q: %w", l.ID, err)
	}
	if err := l.CPU.restore(s.CPU, l.cfg); err != nil {
		return fmt.Errorf("link %q: %w", l.ID, err)
	}
	if err := l.Module.restore(s.Module, l.cfg); err != nil {
		return fmt.Errorf("link %q: %w", l.ID, err)
	}
	l.calibrated = true
	l.rounds = s.Rounds
	l.emit(telemetry.Event{
		Kind: telemetry.EventRestored, Link: l.ID, Round: l.rounds,
		Detail: fmt.Sprintf("generation %d", s.Generation),
	})
	return nil
}

// restore installs one endpoint's snapshot; validation has already passed.
func (e *Endpoint) restore(s EndpointSnapshot, cfg Config) error {
	// Rebuild the fingerprint exactly like the EPROM image codec: the stored
	// samples are the post-smoothing Raw view, so the comparison view is
	// derived without smoothing again.
	noSmooth := e.pipeline
	noSmooth.SmoothSigmaBins = 0
	f := noSmooth.FromWaveform(signal.FromSamples(s.Rate, append([]float64(nil), s.Samples...)))
	if err := e.store.Enroll(enrollKey, f); err != nil {
		return fmt.Errorf("%s endpoint: %w", e.Side, err)
	}
	e.detector.PeakThreshold = s.PeakThreshold
	e.autoThreshold = s.AutoThreshold
	e.bins = cfg.ITDR.Bins()
	e.satStreak = make([]int, e.bins)
	var mask fingerprint.BinMask
	if len(s.MaskedBins) > 0 {
		mask = fingerprint.NewBinMask(e.bins)
		for _, i := range s.MaskedBins {
			mask[i] = true
		}
	}
	e.setMask(mask, cfg.Robust.MaskGuard)
	e.window = append(e.window[:0], s.Window...)
	e.lastScore = s.LastScore
	e.reenrollments = s.Reenrollments
	e.suspectRounds = s.SuspectRounds
	e.lastSuspect = s.LastSuspect
	e.failures = s.Failures
	e.sinceReenroll = s.SinceReenroll
	e.authenticated = s.Authenticated
	e.Gate.Set(s.Authenticated)
	// Publish no spurious health transition on the first post-restore round:
	// the restored state's health is the state the link shut down in.
	e.lastHealth = e.health(cfg.Robust).State
	return nil
}
