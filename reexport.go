package divot

import (
	"divot/internal/attack"
	"divot/internal/core"
	"divot/internal/fault"
	"divot/internal/fingerprint"
	"divot/internal/itdr"
	"divot/internal/txline"
)

// Re-exported building blocks. The implementation lives in internal
// packages; these aliases are the supported public names.

// Engine-level types (§III protocol).
type (
	// EngineConfig configures the per-endpoint DIVOT engine.
	EngineConfig = core.Config
	// Alert is a monitoring alarm.
	Alert = core.Alert
	// AlertKind classifies alerts.
	AlertKind = core.AlertKind
	// Side identifies the CPU or module end of a link.
	Side = core.Side
	// Endpoint is one iTDR-equipped bus interface.
	Endpoint = core.Endpoint
	// Robustness tunes the fault-tolerant monitoring protocol.
	Robustness = core.Robustness
	// ReenrollPolicy governs drift-guarded fingerprint refresh.
	ReenrollPolicy = core.ReenrollPolicy
	// LinkHealth is a link's instrument/protocol condition snapshot.
	LinkHealth = core.LinkHealth
	// EndpointHealth is one endpoint's condition snapshot.
	EndpointHealth = core.EndpointHealth
	// HealthState orders conditions from ok to failed.
	HealthState = core.HealthState
	// LinkSnapshot is a link's durable state (Link.Snapshot / Link.Restore):
	// enrolled fingerprints, tamper thresholds, dead-bin masks, drift
	// baselines, and health counters, in a versioned JSON-encodable form.
	LinkSnapshot = core.LinkSnapshot
	// EndpointSnapshot is one endpoint's durable state within a LinkSnapshot.
	EndpointSnapshot = core.EndpointSnapshot
)

// Engine constants.
const (
	SideCPU          = core.SideCPU
	SideModule       = core.SideModule
	AlertAuthFailure = core.AlertAuthFailure
	AlertTamper      = core.AlertTamper

	HealthOK       = core.HealthOK
	HealthSuspect  = core.HealthSuspect
	HealthDegraded = core.HealthDegraded
	HealthFailed   = core.HealthFailed
)

// Protocol sentinels.
var (
	// ErrNotCalibrated is returned when monitoring precedes calibration.
	ErrNotCalibrated = core.ErrNotCalibrated
	// ErrEnrollmentLost is returned when an enrollment store is empty.
	ErrEnrollmentLost = core.ErrEnrollmentLost
)

// DefaultRobustness is the hardened-protocol default configuration.
var DefaultRobustness = core.DefaultRobustness

// Fault-injection layer (instrument fault modeling; attach a plane to an
// endpoint via Endpoint.Instrument().SetInjector).
type (
	// Fault is one injectable instrument fault with its schedule.
	Fault = fault.Fault
	// FaultKind enumerates the fault models.
	FaultKind = fault.Kind
	// FaultSchedule says when a fault is active.
	FaultSchedule = fault.Schedule
	// FaultPlane folds scheduled faults into an instrument's measurements.
	FaultPlane = fault.Plane
)

// Fault constructors.
var (
	NewFaultPlane      = fault.NewPlane
	FaultOnce          = fault.Once
	FaultFrom          = fault.From
	FaultDuty          = fault.Duty
	NewStuckComparator = fault.StuckComparator
	NewOffsetStep      = fault.OffsetStep
	NewNoiseDrift      = fault.NoiseDrift
	NewPhaseGlitch     = fault.PhaseGlitch
	NewPhaseDrift      = fault.PhaseDrift
	NewJitterBurst     = fault.JitterBurst
	NewDeadBinField    = fault.DeadBinField
	NewDeadBinList     = fault.DeadBinList
	NewCounterUpset    = fault.CounterUpset
	NewTempGlitch      = fault.TempGlitch
	NewEMIGlitch       = fault.EMIGlitch
)

// Instrument types (§II).
type (
	// ITDRConfig holds the reflectometer's operating parameters.
	ITDRConfig = itdr.Config
	// TriggerMode selects which bus events launch probes.
	TriggerMode = itdr.TriggerMode
	// Resources is the FPGA utilization model.
	Resources = itdr.Resources
)

// Trigger modes.
const (
	TriggerClock = itdr.TriggerClock
	TriggerFIFO  = itdr.TriggerFIFO
	TriggerNone  = itdr.TriggerNone
)

// Fingerprinting types (Eq. 4/5).
type (
	// IIP is a processed fingerprint.
	IIP = fingerprint.IIP
	// Pipeline post-processes measurements into fingerprints.
	Pipeline = fingerprint.Pipeline
	// Matcher makes authentication decisions.
	Matcher = fingerprint.Matcher
	// TamperDetector flags localized IIP changes.
	TamperDetector = fingerprint.TamperDetector
	// TamperVerdict is a tamper-check outcome.
	TamperVerdict = fingerprint.TamperVerdict
	// AlignResult is a stretch-compensated match (extension).
	AlignResult = fingerprint.AlignResult
	// BinMask marks dead ETS bins that matching renormalizes around.
	BinMask = fingerprint.BinMask
)

// Masked matching (graceful degradation over dead ETS bins).
var (
	// MaskedSimilarity is Similarity restricted to live bins.
	MaskedSimilarity = fingerprint.MaskedSimilarity
	// MaskedErrorFunction is ErrorFunction with masked bins zeroed.
	MaskedErrorFunction = fingerprint.MaskedErrorFunction
)

// AlignStretch estimates and undoes a common time-axis stretch (thermal or
// mechanical) before scoring — the environmental-robustness extension.
var AlignStretch = fingerprint.AlignStretch

// MultiLink protects a bus as a bundle of wires with fused gates.
type MultiLink = core.MultiLink

// Similarity computes S_xy (Eq. 4) on two fingerprints.
func Similarity(x, y IIP) float64 { return fingerprint.Similarity(x, y) }

// ErrorFunction computes E_xy (Eq. 5); see fingerprint.ErrorFunction.
var ErrorFunction = fingerprint.ErrorFunction

// Physical-layer types.
type (
	// LineConfig describes transmission-line construction.
	LineConfig = txline.Config
	// Line is a transmission line with its intrinsic IIP.
	Line = txline.Line
	// Environment models ambient measurement conditions.
	Environment = txline.Environment
	// Probe describes the interrogating edge.
	Probe = txline.Probe
	// Perturbation is a local impedance modification.
	Perturbation = txline.Perturbation
)

// Environment constructors.
var (
	// RoomTemperature is the calibration environment.
	RoomTemperature = txline.RoomTemperature
	// OvenSwing is the Fig. 8 temperature-swing environment.
	OvenSwing = txline.OvenSwing
	// VibrationEnv is the §IV-C piezo-chirp environment.
	VibrationEnv = txline.Vibration
	// EMIEnv is the §IV-C nearby-digital-circuit environment.
	EMIEnv = txline.EMI
)

// Attack models (§IV-D/E/F, §III).
type (
	// Attack is a reversible physical manipulation of a line.
	Attack = attack.Attack
	// LoadModification swaps the terminating chip.
	LoadModification = attack.LoadModification
	// WireTap solders a tapping stub onto the trace.
	WireTap = attack.WireTap
	// MagneticProbe is a non-contact near-field probe.
	MagneticProbe = attack.MagneticProbe
	// ColdBootSwap moves the module to an attacker's bus.
	ColdBootSwap = attack.ColdBootSwap
	// ModuleSwap replaces the memory module on the genuine bus.
	ModuleSwap = attack.ModuleSwap
	// TraceMill is supply-chain copper tampering.
	TraceMill = attack.TraceMill
	// Interposer is a data-transparent man-in-the-middle insertion.
	Interposer = attack.Interposer
	// AdaptiveTap is a tap whose loading drifts slowly between rounds,
	// trying to hide inside the re-enrollment window.
	AdaptiveTap = attack.AdaptiveTap
	// AttackStepper is implemented by attacks that evolve one step per
	// monitoring round (adaptive adversaries).
	AttackStepper = attack.Stepper
)

// Attack constructors.
var (
	NewWireTap       = attack.DefaultWireTap
	NewMagneticProbe = attack.DefaultMagneticProbe
	NewTraceMill     = attack.DefaultTraceMill
	NewColdBootSwap  = attack.NewColdBootSwap
	NewModuleSwap    = attack.NewModuleSwap
	NewInterposer    = attack.DefaultInterposer
	NewAdaptiveTap   = attack.DefaultAdaptiveTap
)

// ResourceModel returns the iTDR utilization for a configuration.
var ResourceModel = itdr.ResourceModel

// FleetUtilization returns the cost of protecting n buses.
var FleetUtilization = itdr.FleetUtilization
