package itdr

import "divot/internal/telemetry"

// Fault injection hook. The reflectometer exposes one seam through which a
// fault model (internal/fault) can distort a measurement while it is being
// acquired — at the same physical level where the real degradation would
// occur: comparator decisions, counter words, PLL phase, the environment the
// line is probed under. The healthy path is untouched when no injector is
// attached, and an attached injector that reports no active fault leaves the
// per-trial random draw sequence exactly as it was, so fault-free rounds stay
// bit-identical with and without the hook.

// StuckMode describes a comparator output stuck at a rail.
type StuckMode int

const (
	// StuckNone: the comparator operates normally.
	StuckNone StuckMode = iota
	// StuckLow: every decision reads 0 regardless of the inputs.
	StuckLow
	// StuckHigh: every decision reads 1 regardless of the inputs.
	StuckHigh
)

// BinFault is the per-ETS-bin component of a measurement fault.
type BinFault struct {
	// Dead marks the bin's acquisition slice dead: no trial ever fires, so
	// the ones-counter stays at zero (a pegged-low reconstruction).
	Dead bool
	// CounterXOR is XORed into the bin's ones-count after the trial loop —
	// a single-event upset in the counter register. The result is clamped
	// to the physical counter range [0, TrialsPerBin].
	CounterXOR uint32
}

// MeasurementFault is everything an injector may distort in one measurement.
// The zero value distorts nothing.
type MeasurementFault struct {
	// Stuck forces every comparator decision to a rail.
	Stuck StuckMode
	// ExtraOffset is an additional input-referred comparator offset in
	// volts that the APC inverse map does not know about.
	ExtraOffset float64
	// NoiseScale multiplies the comparator noise sigma; 0 means 1 (no
	// change). The inverse map keeps assuming the calibrated sigma.
	NoiseScale float64
	// ExtraJitterRMS adds (in quadrature) to the PLL phase jitter, in
	// seconds.
	ExtraJitterRMS float64
	// PhaseOffset shifts every ETS sampling instant by a fixed amount, in
	// seconds — a PLL phase step.
	PhaseOffset float64
	// Condition, when non-nil, transforms the environmental condition the
	// measurement runs under (temperature steps, EMI bursts).
	Condition func(ConditionTransform) ConditionTransform
	// Bin, when non-nil, returns the per-bin fault for ETS bin m. It must be
	// a pure function of m (and of state fixed before the measurement
	// started), so a bin's fault depends only on the bin's identity.
	Bin func(m int) BinFault
}

// ConditionTransform is the subset of the environmental condition a fault may
// perturb. Keeping it here (instead of importing txline's Condition wholesale)
// pins down exactly what the injection seam can touch.
type ConditionTransform struct {
	// DeltaT is the temperature excursion from the calibration point in °C.
	DeltaT float64
	// EMIAmplitude is the injected EMI amplitude in volts at the detector.
	EMIAmplitude float64
}

// noiseScale resolves the 0-means-1 convention.
func (mf MeasurementFault) noiseScale() float64 {
	if mf.NoiseScale == 0 {
		return 1
	}
	return mf.NoiseScale
}

// distortsTrials reports whether the per-trial comparator path needs the
// distorted sampling call.
func (mf MeasurementFault) distortsTrials() bool {
	return mf.ExtraOffset != 0 || (mf.NoiseScale != 0 && mf.NoiseScale != 1)
}

// Injector is the seam a fault plane implements. BeginMeasurement is called
// once at the start of every measurement with the instrument's measurement
// sequence number (1 for the first measurement the instrument ever takes —
// enrollment measurements count). It returns the fault to apply and whether
// any fault is active; when ok is false the measurement proceeds exactly as
// the healthy path would.
type Injector interface {
	BeginMeasurement(seq uint64) (mf MeasurementFault, ok bool)
}

// SetInjector attaches (or, with nil, detaches) a fault injector to the
// instrument. One injector must not be shared between instruments that
// measure concurrently. An injector that is telemetry.Wirable (the fault
// plane) inherits the instrument's sink and labels, so fault-injection
// events flow through the same per-link channel as everything else —
// whichever order SetInjector and SetSink are called in.
func (r *Reflectometer) SetInjector(inj Injector) {
	r.inj = inj
	if w, ok := inj.(telemetry.Wirable); ok {
		w.WireSink(r.sink, r.link, r.side)
	}
}

// SetSink attaches (or, with nil, detaches) a telemetry sink; the instrument
// then emits one EventMeasurement per acquisition, labelled with the given
// link id and side. An attached Wirable injector is re-pointed at the same
// sink.
func (r *Reflectometer) SetSink(s telemetry.Sink, link, side string) {
	r.sink, r.link, r.side = s, link, side
	if w, ok := r.inj.(telemetry.Wirable); ok {
		w.WireSink(s, link, side)
	}
}

// Seq returns the number of measurements the instrument has taken so far.
// The next measurement carries sequence number Seq()+1 — the value fault
// schedules are written against.
func (r *Reflectometer) Seq() uint64 { return r.seq }
