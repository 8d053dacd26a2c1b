// Package signal provides the sampled-waveform substrate for the DIVOT
// simulation: uniformly sampled analog signals with arithmetic, inner
// products, smoothing, time stretch, and the edge and modulator generators the
// iTDR front end needs.
//
// Time is expressed in seconds and rates in samples per second throughout.
package signal

import (
	"fmt"
)

// Waveform is a uniformly sampled real-valued signal. Samples[i] is the value
// at time i/Rate.
type Waveform struct {
	Rate    float64 // samples per second
	Samples []float64
}

// New returns an all-zero waveform with n samples at the given rate.
func New(rate float64, n int) *Waveform {
	if rate <= 0 {
		panic(fmt.Sprintf("signal: non-positive rate %v", rate))
	}
	if n < 0 {
		panic(fmt.Sprintf("signal: negative length %d", n))
	}
	return &Waveform{Rate: rate, Samples: make([]float64, n)}
}

// FromSamples wraps the given samples (without copying) at the given rate.
func FromSamples(rate float64, samples []float64) *Waveform {
	if rate <= 0 {
		panic(fmt.Sprintf("signal: non-positive rate %v", rate))
	}
	return &Waveform{Rate: rate, Samples: samples}
}

// Clone returns a deep copy of w.
func (w *Waveform) Clone() *Waveform {
	return &Waveform{Rate: w.Rate, Samples: append([]float64(nil), w.Samples...)}
}

// Len returns the number of samples.
func (w *Waveform) Len() int { return len(w.Samples) }

// Duration returns the time span covered by the waveform.
func (w *Waveform) Duration() float64 { return float64(len(w.Samples)) / w.Rate }

// TimeOf returns the time of sample i.
func (w *Waveform) TimeOf(i int) float64 { return float64(i) / w.Rate }

// At returns the waveform value at time t using linear interpolation.
// Times outside the sampled span return the nearest edge sample, so that the
// waveform behaves as if held constant beyond its ends.
func (w *Waveform) At(t float64) float64 {
	if len(w.Samples) == 0 {
		return 0
	}
	pos := t * w.Rate
	if pos <= 0 {
		return w.Samples[0]
	}
	if pos >= float64(len(w.Samples)-1) {
		return w.Samples[len(w.Samples)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return w.Samples[i]*(1-frac) + w.Samples[i+1]*frac
}

// Slice returns the sub-waveform covering sample indices [lo, hi).
// The returned waveform shares storage with w.
func (w *Waveform) Slice(lo, hi int) *Waveform {
	return &Waveform{Rate: w.Rate, Samples: w.Samples[lo:hi]}
}

// sameGrid panics unless a and b share rate and length; used by element-wise
// operations where silent misalignment would corrupt physics.
func sameGrid(op string, a, b *Waveform) {
	if a.Rate != b.Rate {
		panic(fmt.Sprintf("signal: %s rate mismatch %v vs %v", op, a.Rate, b.Rate))
	}
	if len(a.Samples) != len(b.Samples) {
		panic(fmt.Sprintf("signal: %s length mismatch %d vs %d", op, len(a.Samples), len(b.Samples)))
	}
}
