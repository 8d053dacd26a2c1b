// Package analog models the small analog front end the DIVOT architecture
// adds to a bus interface: the coupler that taps the back-reflection, the
// intrinsic-noise-afflicted 1-bit comparator that performs analog-to-
// probability conversion, and the RC quasi-triangle modulator that implements
// probability density modulation.
package analog

import (
	"fmt"

	"divot/internal/rng"
	"divot/internal/signal"
)

// Coupler taps a fraction of the wave travelling backward on the line into
// the detector. Real directional couplers also leak a little of the forward
// (incident) wave; Directivity captures that.
type Coupler struct {
	// Factor is the voltage coupling factor for the backward wave (0..1].
	Factor float64
	// Directivity is the fraction of the forward wave that leaks into the
	// detector output relative to Factor (0 = ideal coupler).
	Directivity float64
}

// DefaultCoupler returns a -14 dB integrated coupler. Directivity leakage of
// the forward wave is a static baseline a real iTDR trims out during
// calibration (the incident edge is the same every probe), so the default
// models the post-trim instrument: zero net leakage. Setting a nonzero
// Directivity shows what an untrimmed front end does to the APC's dynamic
// range.
func DefaultCoupler() Coupler {
	return Coupler{Factor: 0.3, Directivity: 0}
}

// OutputInto combines the backward reflection and the forward incident
// waveform into the voltage the comparator sees, writing into a reusable
// destination (nil allocates a fresh one) that must not alias either input.
func (c Coupler) OutputInto(dst, backward, forward *signal.Waveform) *signal.Waveform {
	dst = signal.ScaleInto(dst, backward, c.Factor)
	if c.Directivity != 0 && forward != nil {
		k := c.Factor * c.Directivity
		for i, v := range forward.Samples {
			dst.Samples[i] += k * v
		}
	}
	return dst
}

// Comparator is a 1-bit sampler with intrinsic input-referred Gaussian noise
// and a static input offset. Its output is 1 when the (noisy) signal input
// exceeds the reference input at the sampling instant — the APC primitive.
type Comparator struct {
	// NoiseSigma is the RMS input-referred noise voltage.
	NoiseSigma float64
	// Offset is the static input offset voltage.
	Offset float64
	noise  *rng.Stream
}

// NewComparator returns a comparator drawing its noise from the given stream.
func NewComparator(noiseSigma, offset float64, noise *rng.Stream) *Comparator {
	if noiseSigma <= 0 {
		panic(fmt.Sprintf("analog: non-positive comparator noise %v", noiseSigma))
	}
	return &Comparator{NoiseSigma: noiseSigma, Offset: offset, noise: noise}
}

// Sample returns the comparator decision for signal voltage vsig against
// reference voltage vref, including one fresh noise draw.
func (c *Comparator) Sample(vsig, vref float64) bool {
	return c.SampleWith(c.noise, vsig, vref)
}

// SampleWith is Sample drawing its noise from an explicit stream instead of
// the comparator's own. The parallel measurement engine hands each ETS phase
// bin its own labelled child stream through here, so concurrent bins never
// contend on (or reorder) a shared noise sequence — the property that makes
// measurements bit-identical at any parallelism. NoiseSigma and Offset are
// still the comparator's, so offset drift injected between measurements is
// honoured.
func (c *Comparator) SampleWith(noise *rng.Stream, vsig, vref float64) bool {
	n := noise.Gaussian(0, c.NoiseSigma)
	return vsig+c.Offset+n > vref
}

// SampleDistorted is SampleWith for a comparator suffering transient
// degradation: extraOffset volts of additional input offset and a noise sigma
// scaled by noiseScale, neither of which the calibrated inverse map knows
// about. The fault-injection layer routes distorted trials through here so the
// healthy path keeps its exact draw sequence.
func (c *Comparator) SampleDistorted(noise *rng.Stream, vsig, vref, extraOffset, noiseScale float64) bool {
	n := noise.Gaussian(0, c.NoiseSigma*noiseScale)
	return vsig+c.Offset+extraOffset+n > vref
}

// Modulator produces the PDM reference waveform. Level must be deterministic
// in t so that the Vernier relationship between the modulation frequency and
// the sampling clock holds exactly.
type Modulator interface {
	// Level returns the reference voltage at time t.
	Level(t float64) float64
	// Period returns the modulation period in seconds.
	Period() float64
}

// TriangleModulator is the paper's showcased PDM source: a digital output
// driving an RC charge-discharge circuit.
type TriangleModulator struct {
	signal.RCQuasiTriangle
}

// NewTriangleModulator returns an RC quasi-triangle modulator with the given
// fundamental frequency and amplitude. tauRatio sets the RC constant relative
// to the half period; values near 1 give a good triangle approximation.
func NewTriangleModulator(freq, amplitude, tauRatio float64) TriangleModulator {
	if freq <= 0 || amplitude <= 0 || tauRatio <= 0 {
		panic(fmt.Sprintf("analog: invalid modulator parameters f=%v A=%v tau=%v",
			freq, amplitude, tauRatio))
	}
	return TriangleModulator{signal.RCQuasiTriangle{Freq: freq, Amplitude: amplitude, TauRatio: tauRatio}}
}

// Period returns the modulation period.
func (m TriangleModulator) Period() float64 { return 1 / m.Freq }

// FixedReference is a degenerate modulator holding a constant reference —
// the no-PDM baseline used in the Fig. 4 ablation.
type FixedReference float64

// Level returns the constant reference voltage.
func (f FixedReference) Level(float64) float64 { return float64(f) }

// Period returns a nominal 1-second period (the reference never changes).
func (f FixedReference) Period() float64 { return 1 }
