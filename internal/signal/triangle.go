package signal

import "math"

// RCQuasiTriangle models the quasi-triangle waveform obtained by driving an
// RC charge-discharge circuit from a square wave, as the paper proposes for
// the PDM modulation source (§II-C). The output swings between roughly
// -amplitude and +amplitude; the exponential charging makes the "triangle"
// slightly convex, which is the realistic shape an iTDR sees.
type RCQuasiTriangle struct {
	Freq      float64 // square-wave frequency, Hz
	Amplitude float64 // asymptotic swing, volts
	TauRatio  float64 // RC time constant as a fraction of the half period; ~1 gives a near-triangle
}

// Level returns the modulator output voltage at time t.
func (m RCQuasiTriangle) Level(t float64) float64 {
	half := 1 / (2 * m.Freq)
	tau := m.TauRatio * half
	phase := t * m.Freq
	phase -= math.Floor(phase)
	// Steady-state square-wave response of a first-order RC: during the
	// charging half-cycle the output moves from -V0 toward +A, then back.
	// V0 is the steady-state turning-point amplitude.
	v0 := m.Amplitude * math.Tanh(half/(2*tau))
	if phase < 0.5 {
		dt := phase * 2 * half
		return m.Amplitude - (m.Amplitude+v0)*math.Exp(-dt/tau)
	}
	dt := (phase - 0.5) * 2 * half
	return -m.Amplitude + (m.Amplitude+v0)*math.Exp(-dt/tau)
}

// Sample renders n samples of the modulator at the given rate.
func (m RCQuasiTriangle) Sample(rate float64, n int) *Waveform {
	w := New(rate, n)
	for i := range w.Samples {
		w.Samples[i] = m.Level(float64(i) / rate)
	}
	return w
}
