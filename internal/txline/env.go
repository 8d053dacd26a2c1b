package txline

import (
	"math"

	"divot/internal/rng"
)

// Environment models the ambient conditions under which a measurement is
// taken. The zero value is the calibration environment: 23 °C, no vibration,
// no EMI.
type Environment struct {
	// TempC is the ambient temperature. Calibration happens at 23 °C.
	TempC float64
	// TempJitterC is the RMS of the per-measurement random temperature
	// fluctuation around TempC (ambient drift between measurements).
	TempJitterC float64
	// TempSwingC, when positive, makes each measurement sample a uniformly
	// random temperature in [TempC, TempC+TempSwingC] — the paper's oven
	// swing from 23 °C to 75 °C.
	TempSwingC float64
	// VibrationStrain is the peak mechanical strain (relative elongation)
	// induced by vibration/acoustic excitation. The paper's piezo chirp
	// sweeps 1-50 Hz; measurements land at random phase, so each
	// measurement sees a random instantaneous strain.
	VibrationStrain float64
	// EMIAmplitude is the peak interference voltage a nearby digital
	// circuit couples into the receiver, and EMIFreq its fundamental in Hz.
	// The interference is asynchronous to the sampling clock.
	EMIAmplitude float64
	EMIFreq      float64
	// CrosstalkAmplitude is the peak voltage a neighbouring lane of the
	// same bus couples into the receiver. Unlike EMI, the neighbour runs
	// on the *same* clock, so its clock-lane coupling arrives at the same
	// point of every probe cycle — a deterministic bump that synchronized
	// averaging cannot remove. CrosstalkOffsetSec places the bump within
	// the observation window (set by the coupled-region geometry) and
	// CrosstalkWidthSec its width (the aggressor's edge rise time).
	CrosstalkAmplitude float64
	CrosstalkOffsetSec float64
	CrosstalkWidthSec  float64
}

// RoomTemperature returns the calibration environment with a small ambient
// temperature jitter, representing normal lab conditions.
func RoomTemperature() Environment {
	return Environment{TempC: 23, TempJitterC: 0.3}
}

// OvenSwing returns the paper's Fig. 8 environment: temperature swinging from
// 23 °C to 75 °C across measurements.
func OvenSwing() Environment {
	e := RoomTemperature()
	e.TempSwingC = 52
	return e
}

// Vibration returns the paper's piezo-chirp environment layered on room
// temperature.
func Vibration(strain float64) Environment {
	e := RoomTemperature()
	e.VibrationStrain = strain
	return e
}

// EMI returns the paper's nearby-digital-circuit environment layered on room
// temperature.
func EMI(amplitude, freq float64) Environment {
	e := RoomTemperature()
	e.EMIAmplitude = amplitude
	e.EMIFreq = freq
	return e
}

// Crosstalk returns a bundle-neighbour coupling environment layered on room
// temperature: a synchronized aggressor whose clock edge couples at the
// given offset into the victim's window.
func Crosstalk(amplitude, offsetSec float64) Environment {
	e := RoomTemperature()
	e.CrosstalkAmplitude = amplitude
	e.CrosstalkOffsetSec = offsetSec
	e.CrosstalkWidthSec = 120e-12
	return e
}

// Condition is the sampled state of the environment for one IIP measurement.
type Condition struct {
	// DeltaT is the temperature offset from the 23 °C calibration point.
	DeltaT float64
	// Stretch is the mechanical time-axis factor (1 = unstrained).
	Stretch float64
	// EMIAmplitude/EMIFreq/EMIPhase describe the interference seen during
	// this measurement; the phase is random because the aggressor is
	// asynchronous.
	EMIAmplitude float64
	EMIFreq      float64
	EMIPhase     float64
	// Crosstalk parameters (synchronized neighbour-lane coupling).
	CrosstalkAmplitude float64
	CrosstalkOffsetSec float64
	CrosstalkWidthSec  float64
}

// Sample draws the instantaneous condition for one measurement.
func (e Environment) Sample(stream *rng.Stream) Condition {
	temp := e.TempC
	if e.TempSwingC > 0 {
		temp += stream.Uniform(0, e.TempSwingC)
	}
	if e.TempJitterC > 0 {
		temp += stream.Gaussian(0, e.TempJitterC)
	}
	stretch := 1.0
	if e.VibrationStrain > 0 {
		// Random phase of the chirped knocking: instantaneous strain is
		// sinusoidal with uniformly random phase.
		stretch = 1 + e.VibrationStrain*math.Sin(stream.Uniform(0, 2*math.Pi))
	}
	return Condition{
		DeltaT:             temp - 23,
		Stretch:            stretch,
		EMIAmplitude:       e.EMIAmplitude,
		EMIFreq:            e.EMIFreq,
		EMIPhase:           stream.Uniform(0, 2*math.Pi),
		CrosstalkAmplitude: e.CrosstalkAmplitude,
		CrosstalkOffsetSec: e.CrosstalkOffsetSec,
		CrosstalkWidthSec:  e.CrosstalkWidthSec,
	}
}

// CrosstalkAt returns the synchronized neighbour-lane coupling at offset t
// into the probe cycle — identical on every trial, which is exactly why it
// does not average out.
func (c Condition) CrosstalkAt(t float64) float64 {
	if c.CrosstalkAmplitude == 0 {
		return 0
	}
	z := (t - c.CrosstalkOffsetSec) / c.CrosstalkWidthSec
	return c.CrosstalkAmplitude * math.Exp(-0.5*z*z)
}
