// Package core implements the DIVOT architecture's operating protocol
// (§III): two iTDR-equipped endpoints — the CPU's memory controller and the
// memory module's interface — observing the same bus, with calibration
// (fingerprint enrollment), runtime monitoring (two-way authentication plus
// tamper detection), and reaction (authentication gates and alerts).
package core

import (
	"context"
	"errors"
	"fmt"

	"divot/internal/fingerprint"
	"divot/internal/itdr"
	"divot/internal/memctl"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/telemetry"
	"divot/internal/txline"
)

// ErrNotCalibrated is returned (wrapped, with the link id) when monitoring is
// attempted before Calibrate has enrolled the link.
var ErrNotCalibrated = errors.New("core: link not calibrated")

// ErrEnrollmentLost is returned when an endpoint's enrollment store no longer
// holds the link fingerprint — corrupted or erased EPROM.
var ErrEnrollmentLost = errors.New("core: enrollment lost")

// Side identifies which end of the link an endpoint sits on.
type Side int

const (
	// SideCPU is the processor/memory-controller end.
	SideCPU Side = iota
	// SideModule is the memory-module end.
	SideModule
)

// String names the side.
func (s Side) String() string {
	switch s {
	case SideCPU:
		return "cpu"
	case SideModule:
		return "module"
	}
	return fmt.Sprintf("Side(%d)", int(s))
}

// Endpoint is one iTDR-equipped bus interface with its enrollment store and
// the authentication gate it drives.
type Endpoint struct {
	Side Side
	// Gate is the memctl authentication gate this endpoint controls: the
	// CPU endpoint gates command issue; the module endpoint gates column
	// access.
	Gate *memctl.StaticGate

	refl     *itdr.Reflectometer
	pipeline fingerprint.Pipeline
	store    *fingerprint.Store
	matcher  fingerprint.Matcher
	detector fingerprint.TamperDetector

	// observed is the line this endpoint physically measures. A cold-boot
	// swap changes the module endpoint's observed line; the CPU endpoint's
	// observed line changes if the bus itself is rewired.
	observed *txline.Line

	// arena and ws are the endpoint's reusable measurement and scoring
	// memory: every monitoring round recycles them, so the steady-state
	// hot path allocates nothing (see ARCHITECTURE.md §8). Enrollment
	// streams captures through them too (avg accumulates arena-backed
	// waveforms, errBuf holds the floor-probe error field); only the
	// *retained* results — the enrolled fingerprint — own their memory.
	arena  *itdr.Arena
	ws     fingerprint.Workspace
	avg    fingerprint.Averager
	errBuf *signal.Waveform

	// Authenticated reflects the most recent monitoring verdict.
	authenticated bool

	// Robustness state (see robust.go). bins is the instrument's ETS bin
	// count; satStreak counts consecutive saturated sightings per bin; mask
	// is the persistent dead-bin mask matching renormalizes around, and
	// scoring is mask dilated by the link's MaskGuard — recomputed by
	// setMask whenever mask changes, never per round.
	bins          int
	satStreak     []int
	mask          fingerprint.BinMask
	scoring       fingerprint.BinMask
	window        []float64 // rolling accepted-score window, oldest first
	lastScore     float64
	lastPeakErr   float64 // E_xy peak of the latest monitored round
	lastContrast  float64 // peak-to-mean contrast of that error field
	reenrollments int
	suspectRounds int
	lastSuspect   bool
	failures      int // confirmed auth-failure rounds
	sinceReenroll int // clean rounds since enrollment was (re)established
	autoThreshold bool
	lastHealth    HealthState // last health state published to telemetry
}

// Config parameterizes the engine.
type Config struct {
	ITDR itdr.Config
	// Probe is the launch-edge description shared by both endpoints.
	Probe txline.Probe
	// Pipeline post-processes measurements into fingerprints.
	Pipeline fingerprint.Pipeline
	// AuthThreshold is the similarity acceptance threshold.
	AuthThreshold float64
	// TamperThreshold is the E_xy peak flagging tampering, in volts².
	// Zero means auto-calibrate from the clean noise floor at enrollment.
	TamperThreshold float64
	// TamperThresholdScale multiplies the auto-calibrated tamper threshold
	// (ignored when TamperThreshold is set explicitly). 0 means 1. The
	// experiment harness sweeps it to trade tamper sensitivity for false
	// alarms — and to inject deliberate detector nerfs that the quality
	// regression gate must catch.
	TamperThresholdScale float64
	// EnrollMeasurements is the number of averaged measurements during
	// calibration.
	EnrollMeasurements int
	// Parallelism bounds the worker goroutines of every concurrent
	// operation this engine owns: the wire fan-out of MultiLink enrollment
	// and rounds, and the link fan-out of MonitorAll. One link enrolls, and
	// one capture runs, on the goroutine that asked for it. 0 (the default)
	// selects runtime.GOMAXPROCS(0); 1 runs everything inline. Results are
	// bit-identical at every setting.
	Parallelism int
	// Robust tunes the fault-tolerant monitoring protocol: confirm-on-
	// suspect retries, dead-bin masking, and drift-guarded re-enrollment.
	// The zero value disables all of it (the paper's bare §III protocol);
	// DefaultConfig enables DefaultRobustness.
	Robust Robustness
}

// tamperFloorProbes is how many extra measurements (auto-threshold
// calibration only) probe the clean noise floor after enrollment.
const tamperFloorProbes = 4

// tamperScale resolves TamperThresholdScale's 0-means-1 convention.
func (c Config) tamperScale() float64 {
	if c.TamperThresholdScale <= 0 {
		return 1
	}
	return c.TamperThresholdScale
}

// CalibrationMeasurements returns how many instrument measurements one
// endpoint consumes during Calibrate: the enrollment averages plus the
// tamper-floor probes when the threshold is auto-calibrated. Fault schedules
// aimed at monitoring round k of a freshly calibrated link should start at
// measurement sequence number CalibrationMeasurements()+k (sequence numbers
// are 1-based and count every measurement the instrument takes).
func (c Config) CalibrationMeasurements() int {
	n := c.EnrollMeasurements
	if c.TamperThreshold == 0 {
		n += tamperFloorProbes
	}
	return n
}

// DefaultConfig returns the engine configuration matching the prototype.
func DefaultConfig() Config {
	return Config{
		ITDR:               itdr.DefaultConfig(),
		Probe:              txline.DefaultProbe(),
		Pipeline:           fingerprint.DefaultPipeline(),
		AuthThreshold:      0.70,
		TamperThreshold:    0, // auto-calibrated
		EnrollMeasurements: 8,
		Robust:             DefaultRobustness(),
	}
}

// AlertKind classifies a monitoring alarm.
type AlertKind int

const (
	// AlertAuthFailure: the measured fingerprint no longer matches the
	// enrolled one (module swap, bus swap, cold boot).
	AlertAuthFailure AlertKind = iota
	// AlertTamper: a localized IIP change indicates probing or tampering.
	AlertTamper
)

// String names the alert kind.
func (k AlertKind) String() string {
	switch k {
	case AlertAuthFailure:
		return "auth-failure"
	case AlertTamper:
		return "tamper"
	}
	return fmt.Sprintf("AlertKind(%d)", int(k))
}

// Alert is one monitoring alarm.
type Alert struct {
	Side Side
	Kind AlertKind
	// Wire is the index of the wire that raised the alarm on a multi-wire
	// bus; 0 for single-lane links.
	Wire int
	// Score is the similarity for auth failures.
	Score float64
	// PeakError and Position describe tamper alerts.
	PeakError float64
	Position  float64
}

// String renders the alert.
func (a Alert) String() string {
	wire := ""
	if a.Wire != 0 {
		wire = fmt.Sprintf(" (wire %d)", a.Wire)
	}
	switch a.Kind {
	case AlertAuthFailure:
		return fmt.Sprintf("[%s] auth failure: S=%.4f%s", a.Side, a.Score, wire)
	default:
		return fmt.Sprintf("[%s] tamper: E=%.3g at %.1f mm%s", a.Side, a.PeakError, a.Position*1e3, wire)
	}
}

// Link is one DIVOT-protected bus: the physical line plus both endpoints.
type Link struct {
	ID  string
	cfg Config
	// Line is the genuine bus between the endpoints.
	Line *txline.Line
	// Env is the ambient environment monitoring runs under.
	Env txline.Environment

	CPU    *Endpoint
	Module *Endpoint

	calibrated bool
	// Alerts accumulates every alarm raised by monitoring.
	Alerts []Alert

	// sink receives the link's telemetry events (see telemetry.go); rounds
	// counts monitoring rounds and stamps every event of a round.
	sink   telemetry.Sink
	rounds uint64
}

// NewLink builds a protected link over a freshly manufactured line. The
// stream seeds the line's intrinsic IIP and both endpoints' instruments.
func NewLink(id string, cfg Config, lineCfg txline.Config, stream *rng.Stream) (*Link, error) {
	line := txline.New(id, lineCfg, stream.Child("line"))
	return NewLinkOver(id, cfg, line, stream)
}

// NewLinkOver builds a protected link over an existing line.
func NewLinkOver(id string, cfg Config, line *txline.Line, stream *rng.Stream) (*Link, error) {
	mk := func(side Side, label string) (*Endpoint, error) {
		r, err := itdr.New(cfg.ITDR, cfg.Probe, nil, stream.Child(label))
		if err != nil {
			return nil, fmt.Errorf("core: %s endpoint: %w", side, err)
		}
		return &Endpoint{
			Side:     side,
			Gate:     memctl.NewStaticGate(false), // closed until calibration
			refl:     r,
			pipeline: cfg.Pipeline,
			store:    fingerprint.NewStore(),
			matcher:  fingerprint.Matcher{Threshold: cfg.AuthThreshold},
			detector: fingerprint.TamperDetector{
				PeakThreshold: cfg.TamperThreshold,
				Velocity:      line.Config().Velocity,
			},
			observed: line,
			arena:    itdr.NewArena(),
			bins:     cfg.ITDR.Bins(),
		}, nil
	}
	cpu, err := mk(SideCPU, "itdr-cpu")
	if err != nil {
		return nil, err
	}
	mod, err := mk(SideModule, "itdr-module")
	if err != nil {
		return nil, err
	}
	return &Link{
		ID:     id,
		cfg:    cfg,
		Line:   line,
		Env:    txline.RoomTemperature(),
		CPU:    cpu,
		Module: mod,
	}, nil
}

// measure acquires and post-processes one fingerprint at the endpoint.
func (e *Endpoint) measure(env txline.Environment) fingerprint.IIP {
	return e.pipeline.FromWaveform(e.refl.Measure(e.observed, env).IIP)
}

// Authenticated reports the endpoint's latest monitoring verdict.
func (e *Endpoint) Authenticated() bool { return e.authenticated }

// Instrument returns the endpoint's reflectometer — the handle fault
// injection attaches to (itdr.Reflectometer.SetInjector).
func (e *Endpoint) Instrument() *itdr.Reflectometer { return e.refl }

// Observation is one monitored round's raw detection statistics at an
// endpoint, before any threshold turns them into a verdict. The experiment
// harness (internal/experiment) records these traces and sweeps the decision
// thresholds offline to build ROC curves; the live protocol's alerts are the
// operating point on those curves.
type Observation struct {
	// Score is the confirmed similarity of the round (the mean over the
	// original measurement and any confirmation retries when the round was
	// confirmed as a failure).
	Score float64
	// PeakError is the error function's E_xy peak, in volts².
	PeakError float64
	// TamperThreshold is the detector's current peak threshold — the live
	// operating point of the tamper channel. PeakError/TamperThreshold > 1
	// is exactly the round's live tamper verdict, and sweeping that ratio
	// sweeps the tamper threshold without re-measuring.
	TamperThreshold float64
	// Contrast is the peak-to-mean ratio of the error field (localized
	// change reads high, global drift reads low).
	Contrast float64
}

// LastObservation returns the endpoint's detection statistics from the most
// recent MonitorOnce round. Before the first round it is the zero value.
func (e *Endpoint) LastObservation() Observation {
	return Observation{
		Score:           e.lastScore,
		PeakError:       e.lastPeakErr,
		TamperThreshold: e.detector.PeakThreshold,
		Contrast:        e.lastContrast,
	}
}

// ObservedLine returns the line the endpoint currently measures.
func (e *Endpoint) ObservedLine() *txline.Line { return e.observed }

// SetObservedLine rewires what the endpoint physically sees — the cold-boot
// scenario moves the module onto an attacker's bus.
func (e *Endpoint) SetObservedLine(l *txline.Line) { e.observed = l }

// enrollKey is the store key both endpoints use for the link fingerprint.
const enrollKey = "link"

// Calibrate performs §III's pairing step: both endpoints collect averaged
// fingerprints of the shared bus and store them. When the tamper threshold
// is auto-calibrated (zero), it is set to a multiple of the clean-state
// noise floor observed right after enrollment.
//
// Calibrate runs the cold-enrollment fast path on the calling goroutine:
// captures stream through the endpoint's arena into a running average (O(1)
// waveforms held instead of EnrollMeasurements), and the floor probes score
// through the endpoint's workspace and a reused error buffer. Fingerprints,
// thresholds, telemetry, and instrument state are bit-identical to the
// original retain-and-average path (see calib_determinism_test.go).
// Parallelism lives above a link: MultiLink.Calibrate (wires) and the
// daemon's cold start (buses) enroll independent links concurrently.
func (l *Link) Calibrate() error {
	for _, e := range []*Endpoint{l.CPU, l.Module} {
		if err := e.calibrate(l.cfg, l.Env); err != nil {
			return err
		}
	}
	l.calibrated = true
	l.emit(telemetry.Event{Kind: telemetry.EventCalibrated, Link: l.ID, Round: l.rounds})
	return nil
}

// calibrate enrolls one endpoint: averaged fingerprint, then — when the
// tamper threshold auto-calibrates — the clean-state noise-floor probes.
func (e *Endpoint) calibrate(cfg Config, env txline.Environment) error {
	e.resetRobustState(cfg)
	e.avg.Reset()
	for i := 0; i < cfg.EnrollMeasurements; i++ {
		e.avg.Add(e.refl.MeasureInto(e.arena, e.observed, env).IIP)
	}
	f, err := e.pipeline.FromAverage(&e.avg, nil) // no bin is masked yet
	if err != nil {
		return fmt.Errorf("core: calibrating %s endpoint: %w", e.Side, err)
	}
	if err := e.store.Enroll(enrollKey, f); err != nil {
		return fmt.Errorf("core: enrolling %s endpoint: %w", e.Side, err)
	}
	if e.detector.PeakThreshold == 0 {
		e.detector.PeakThreshold = 3 * cfg.tamperScale() * e.noiseFloor(env, f, tamperFloorProbes)
	}
	e.authenticated = true
	e.Gate.Set(true)
	return nil
}

// noiseFloor takes n clean captures and returns the largest peak error any
// of them shows against the enrolled fingerprint f — the clean-state floor
// an auto-calibrated tamper threshold scales from.
func (e *Endpoint) noiseFloor(env txline.Environment, f fingerprint.IIP, n int) float64 {
	var floor float64
	for i := 0; i < n; i++ {
		m := e.pipeline.FromWaveformWith(&e.ws, e.refl.MeasureInto(e.arena, e.observed, env).IIP)
		e.errBuf = fingerprint.ErrorFunctionInto(e.errBuf, m, f)
		if v, _, _ := fingerprint.PeakError(e.errBuf); v > floor {
			floor = v
		}
	}
	return floor
}

// Calibrated reports whether enrollment has happened.
func (l *Link) Calibrated() bool { return l.calibrated }

// MonitorOnce runs one hardened monitoring round at both endpoints: measure,
// authenticate against the enrolled fingerprint (over live bins only), check
// for tampering, confirm suspect verdicts with immediate re-measurements,
// consider drift-guarded re-enrollment, drive the gates, and record alerts.
// It returns the alerts raised this round, and a wrapped ErrNotCalibrated /
// ErrEnrollmentLost instead of monitoring an unenrolled link. See robust.go
// for the per-endpoint round.
func (l *Link) MonitorOnce() ([]Alert, error) {
	if !l.calibrated {
		err := fmt.Errorf("link %q: %w", l.ID, ErrNotCalibrated)
		l.emit(telemetry.Event{
			Kind: telemetry.EventMonitorError, Link: l.ID,
			Round: l.rounds, Detail: err.Error(),
		})
		return nil, err
	}
	l.rounds++
	var raised []Alert
	for _, e := range []*Endpoint{l.CPU, l.Module} {
		alerts, err := l.monitorEndpoint(e)
		raised = append(raised, alerts...)
		if err != nil {
			l.emit(telemetry.Event{
				Kind: telemetry.EventMonitorError, Link: l.ID, Side: e.Side.String(),
				Round: l.rounds, Detail: err.Error(),
			})
			return raised, err
		}
	}
	l.Alerts = append(l.Alerts, raised...)
	return raised, nil
}

// MonitorN runs n monitoring rounds and returns all alerts raised, stopping
// at the first protocol error.
func (l *Link) MonitorN(n int) ([]Alert, error) {
	return l.MonitorNCtx(context.Background(), n)
}

// MonitorNCtx is MonitorN with cooperative cancellation: the context is
// checked between rounds, so an in-flight round always completes (a round is
// a bounded, microsecond-scale measurement — tearing one down midway would
// desynchronize the two endpoints' robustness state). On cancellation the
// alerts raised so far are returned together with the context's error.
func (l *Link) MonitorNCtx(ctx context.Context, n int) ([]Alert, error) {
	var all []Alert
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return all, err
		}
		alerts, err := l.MonitorOnce()
		all = append(all, alerts...)
		if err != nil {
			return all, err
		}
	}
	return all, nil
}

// SpotCheck runs one read-only measurement at the CPU endpoint against its
// enrolled fingerprint: no gates move, no alerts are recorded, no
// confirmation retries run, and no robustness state advances — only the CPU
// instrument's measurement is consumed. Every alert it returns is SideCPU.
// Both enrollments are still required: a link whose module endpoint has lost
// its fingerprint fails with ErrEnrollmentLost even though the module is not
// measured. The facade's Authenticate builds on this.
func (l *Link) SpotCheck() ([]Alert, error) {
	if !l.calibrated {
		return nil, fmt.Errorf("link %q: %w", l.ID, ErrNotCalibrated)
	}
	e := l.CPU
	enrolled, ok := e.store.Lookup(enrollKey)
	if !ok {
		return nil, l.enrollmentLost(e)
	}
	if _, ok := l.Module.store.Lookup(enrollKey); !ok {
		return nil, l.enrollmentLost(l.Module)
	}
	var raised []Alert
	meas := e.refl.MeasureInto(e.arena, e.observed, l.Env)
	f := e.pipeline.FromWaveformMaskedWith(&e.ws, meas.IIP, e.mask)
	if auth := e.matcher.AuthenticateMasked(f, enrolled, e.scoring); !auth.Accepted {
		raised = append(raised, Alert{Side: e.Side, Kind: AlertAuthFailure, Score: auth.Score})
	}
	if v := e.detector.CheckMaskedWith(&e.ws, f, enrolled, e.scoring); v.Tampered {
		raised = append(raised, Alert{
			Side: e.Side, Kind: AlertTamper,
			PeakError: v.PeakError, Position: v.Position,
		})
	}
	return raised, nil
}

// enrollmentLost is the wrapped ErrEnrollmentLost for endpoint e of the link.
func (l *Link) enrollmentLost(e *Endpoint) error {
	return fmt.Errorf("%s endpoint of link %q: %w", e.Side, l.ID, ErrEnrollmentLost)
}

// MeasurementDuration returns the wall-clock time one monitoring round takes
// per endpoint — the paper's "within 50 µs" figure.
func (l *Link) MeasurementDuration() float64 {
	return l.cfg.ITDR.MeasurementDuration()
}
