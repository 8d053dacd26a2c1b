package signal

import "math"

// StepEdge returns a rising edge from 0 to amplitude with the given 10-90%
// rise time, centered at time t0, sampled at rate over n samples. The edge
// shape is the error-function step that a bandwidth-limited driver produces.
func StepEdge(rate float64, n int, t0, riseTime, amplitude float64) *Waveform {
	w := New(rate, n)
	// For an erf edge, the 10-90% rise time is ~1.812 sigma*sqrt(2)... use
	// sigma such that erf covers 10-90% within riseTime: t_{10-90} = 2*1.2816*sigma/sqrt(2)...
	// Simpler, standard mapping: sigma = riseTime / 2.563 gives 10-90% = riseTime.
	sigma := riseTime / 2.563
	for i := range w.Samples {
		t := float64(i)/rate - t0
		w.Samples[i] = amplitude * 0.5 * (1 + math.Erf(t/(sigma*math.Sqrt2)))
	}
	return w
}
