// Package itdr implements the paper's integrated time-domain reflectometer:
// analog-to-probability conversion (APC) built on a 1-bit comparator,
// probability density modulation (PDM) with a Vernier triangle reference,
// equivalent time sampling (ETS) via PLL phase stepping, and the FIFO-driven
// trigger that makes runtime measurement on live data possible. It is the
// paper's primary instrument (§II), rendered as a behavioral simulation.
package itdr

import (
	"fmt"

	"divot/internal/analog"
)

// TriggerMode selects which bus events launch probe edges (§II-E).
type TriggerMode int

const (
	// TriggerClock probes on every rising edge of the clock lane: edges are
	// perfectly regular, so no trigger logic is needed. This is the mode
	// the paper's memory-bus design uses.
	TriggerClock TriggerMode = iota
	// TriggerFIFO probes on data-lane cycles where the FIFO shows a 1
	// followed by a 0 — a guaranteed falling launch edge. Only a fraction
	// of cycles qualify, stretching the measurement.
	TriggerFIFO
	// TriggerNone probes on every data-lane edge regardless of direction.
	// Rising and falling reflections cancel; this mode exists to
	// demonstrate why the trigger is necessary (ablation A-TR).
	TriggerNone
)

// String returns the mode name.
func (m TriggerMode) String() string {
	switch m {
	case TriggerClock:
		return "clock"
	case TriggerFIFO:
		return "fifo"
	case TriggerNone:
		return "none"
	}
	return fmt.Sprintf("TriggerMode(%d)", int(m))
}

// Config holds the iTDR's operating parameters.
type Config struct {
	// SampleClockHz is the data/sampling clock f_s (paper: 156.25 MHz).
	SampleClockHz float64
	// PhaseStepSec is the ETS phase increment τ (paper: 11.16 ps from the
	// Ultrascale+ PLL).
	PhaseStepSec float64
	// PhaseJitterRMS is the RMS timing jitter of the PLL's phase-shifted
	// sampling clock, in seconds. Each trial's sampling instant wanders by
	// this much around its nominal bin position — the ETS time base is
	// only as good as the PLL. Zero models an ideal PLL.
	PhaseJitterRMS float64
	// WindowSec is the observed round-trip span; bins cover [0, WindowSec).
	WindowSec float64
	// TrialsPerBin is the number of comparator decisions accumulated per
	// ETS phase bin.
	TrialsPerBin int
	// ModFreqRatioNum/Den relate the PDM modulator frequency to the sample
	// clock: f_m = f_s · Num/Den. Den is the number of distinct Vernier
	// reference levels; Num and Den must be coprime for PDM to work
	// (paper example: 6/5).
	ModFreqRatioNum, ModFreqRatioDen int
	// ModAmplitude is the modulator swing in volts at the comparator
	// reference input; ModTauRatio shapes the RC quasi-triangle.
	ModAmplitude float64
	ModTauRatio  float64
	// ComparatorNoise is the comparator's input-referred RMS noise.
	ComparatorNoise float64
	// ComparatorOffset is the static comparator offset (calibrated, so the
	// reconstruction knows it).
	ComparatorOffset float64
	// Coupler is the reflection tap.
	Coupler analog.Coupler
	// Trigger selects the probing mode.
	Trigger TriggerMode
	// TriggerDensity is the probability that a data cycle offers a usable
	// launch edge in TriggerFIFO/TriggerNone modes (0.25 for scrambled
	// random data: P(1 then 0)).
	TriggerDensity float64
}

// DefaultConfig returns the prototype's parameters (§IV-A): 156.25 MHz
// clocks, 11.16 ps phase steps, and a measurement budget of about 8k trials
// so a full IIP completes within the paper's 50 µs envelope.
func DefaultConfig() Config {
	return Config{
		SampleClockHz: 156.25e6,
		PhaseStepSec:  11.16e-12,
		// Ultrascale+ MMCM output jitter is a few ps RMS.
		PhaseJitterRMS: 2e-12,
		WindowSec:      3.83e-9,
		TrialsPerBin:   25,
		// 26/25: one Vernier cycle spans 25 probes, giving 25 distinct
		// reference levels — a denser sweep than the paper's illustrative
		// 6/5 example, at identical hardware cost (the ratio is set by the
		// modulator divider).
		ModFreqRatioNum:  26,
		ModFreqRatioDen:  25,
		ModAmplitude:     6e-3,
		ModTauRatio:      0.5,
		ComparatorNoise:  0.4e-3,
		ComparatorOffset: 0,
		Coupler:          analog.DefaultCoupler(),
		Trigger:          TriggerClock,
		TriggerDensity:   0.25,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SampleClockHz <= 0:
		return fmt.Errorf("itdr: sample clock %v Hz must be positive", c.SampleClockHz)
	case c.PhaseStepSec <= 0:
		return fmt.Errorf("itdr: phase step %v s must be positive", c.PhaseStepSec)
	case c.PhaseJitterRMS < 0:
		return fmt.Errorf("itdr: negative phase jitter %v", c.PhaseJitterRMS)
	case c.WindowSec <= 0:
		return fmt.Errorf("itdr: window %v s must be positive", c.WindowSec)
	case c.WindowSec > 1/c.SampleClockHz:
		return fmt.Errorf("itdr: window %v s exceeds the clock period %v s",
			c.WindowSec, 1/c.SampleClockHz)
	case c.TrialsPerBin <= 0:
		return fmt.Errorf("itdr: trials per bin %d must be positive", c.TrialsPerBin)
	case c.ModFreqRatioNum <= 0 || c.ModFreqRatioDen <= 0:
		return fmt.Errorf("itdr: modulation ratio %d/%d must be positive",
			c.ModFreqRatioNum, c.ModFreqRatioDen)
	case c.ComparatorNoise <= 0:
		return fmt.Errorf("itdr: comparator noise %v must be positive", c.ComparatorNoise)
	case c.Trigger != TriggerClock && (c.TriggerDensity <= 0 || c.TriggerDensity > 1):
		return fmt.Errorf("itdr: trigger density %v must be in (0, 1]", c.TriggerDensity)
	}
	return nil
}

// Bins returns the number of ETS phase bins the window is divided into.
func (c Config) Bins() int {
	n := int(c.WindowSec / c.PhaseStepSec)
	if n < 1 {
		n = 1
	}
	return n
}

// EquivalentRate returns the ETS-equivalent sampling rate 1/τ.
func (c Config) EquivalentRate() float64 { return 1 / c.PhaseStepSec }

// SpatialResolution returns the one-way spatial resolution for the given
// propagation velocity: v·τ/2 (the factor 2 is the round trip).
func (c Config) SpatialResolution(velocity float64) float64 {
	return velocity * c.PhaseStepSec / 2
}

// TotalTrials returns the comparator decisions needed for one full IIP.
func (c Config) TotalTrials() int { return c.Bins() * c.TrialsPerBin }

// MeasurementDuration returns the wall-clock time of one full IIP
// measurement: one trial per qualifying cycle of the sample clock.
func (c Config) MeasurementDuration() float64 {
	cycles := float64(c.TotalTrials())
	if c.Trigger != TriggerClock {
		cycles /= c.TriggerDensity
	}
	return cycles / c.SampleClockHz
}

// ModFrequency returns the PDM modulator frequency f_m.
func (c Config) ModFrequency() float64 {
	return c.SampleClockHz * float64(c.ModFreqRatioNum) / float64(c.ModFreqRatioDen)
}
