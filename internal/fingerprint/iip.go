// Package fingerprint turns iTDR measurements into authentication decisions:
// the similarity function of Eq. 4, the tamper error function of Eq. 5, the
// enrollment store (the paper's EPROM), threshold matching, and multi-wire
// fusion.
package fingerprint

import (
	"fmt"
	"math"

	"divot/internal/signal"
)

// IIP is one processed impedance-inhomogeneity-pattern fingerprint.
type IIP struct {
	// Raw is the line-referred reconstructed waveform in volts at the
	// ETS-equivalent rate, after bandwidth-matched smoothing. The tamper
	// error function (Eq. 5) runs on this view.
	Raw *signal.Waveform
	// cmp is the comparison view similarity runs on, derived from Raw
	// according to the pipeline mode.
	cmp *signal.Waveform
}

// CompareMode selects the representation similarity scoring uses.
type CompareMode int

const (
	// CompareDerivative scores on the first difference of the smoothed
	// waveform — the local-reflectivity profile. Macroscopic features all
	// same-design lines share (the termination step at a fixed position)
	// collapse into narrow pulses, so impostor lines decorrelate while a
	// genuine line's intrinsic inhomogeneity still matches. This is the
	// default.
	CompareDerivative CompareMode = iota
	// CompareMeanRemoved scores on the mean-removed waveform itself;
	// provided for the representation ablation.
	CompareMeanRemoved
)

// String names the mode.
func (m CompareMode) String() string {
	switch m {
	case CompareDerivative:
		return "derivative"
	case CompareMeanRemoved:
		return "mean-removed"
	}
	return fmt.Sprintf("CompareMode(%d)", int(m))
}

// Pipeline converts raw reflectometer output into fingerprints.
type Pipeline struct {
	// SmoothSigmaBins is the Gaussian smoothing width in ETS bins. The
	// physical waveform is band-limited by the probe rise time (~120 ps ≈
	// 10 bins), so smoothing at a few bins removes only counting noise.
	SmoothSigmaBins float64
	// Mode selects the similarity representation.
	Mode CompareMode
}

// DefaultPipeline matches the default iTDR configuration.
func DefaultPipeline() Pipeline {
	return Pipeline{SmoothSigmaBins: 4, Mode: CompareDerivative}
}

// FromWaveform builds a fingerprint from a reconstructed IIP waveform.
func (p Pipeline) FromWaveform(w *signal.Waveform) IIP {
	sm := signal.GaussianSmooth(w, p.SmoothSigmaBins)
	var cmp *signal.Waveform
	switch p.Mode {
	case CompareDerivative:
		cmp = signal.Derivative(sm)
	default:
		cmp = signal.RemoveMean(sm)
	}
	return IIP{Raw: sm, cmp: cmp}
}

// Average builds a fingerprint from the pointwise mean of several
// reconstructed waveforms — the enrollment path, where averaging R
// measurements shrinks reconstruction noise by √R.
func (p Pipeline) Average(ws []*signal.Waveform) (IIP, error) {
	if len(ws) == 0 {
		return IIP{}, fmt.Errorf("fingerprint: cannot average zero measurements")
	}
	acc := signal.New(ws[0].Rate, ws[0].Len())
	for _, w := range ws {
		signal.AddInPlace(acc, w)
	}
	mean := signal.Scale(acc, 1/float64(len(ws)))
	return p.FromWaveform(mean), nil
}

// Len returns the number of bins in the fingerprint.
func (f IIP) Len() int {
	if f.Raw == nil {
		return 0
	}
	return f.Raw.Len()
}

// Valid reports whether the fingerprint holds data.
func (f IIP) Valid() bool { return f.Raw != nil && f.Raw.Len() > 0 }

// Similarity computes the paper's S_xy (Eq. 4): the inner product of the two
// fingerprints' comparison views, normalized to [0, 1]. The cosine value in
// [-1, 1] is mapped to [0, 1] by clamping negative correlations to zero —
// anti-correlated patterns are no more alike than uncorrelated ones for
// authentication purposes.
func Similarity(x, y IIP) float64 {
	if !x.Valid() || !y.Valid() {
		return 0
	}
	s := signal.NormalizedInnerProduct(x.cmp, y.cmp)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// ErrorFunction computes the paper's E_xy(n) = (x(n) - y(n))² (Eq. 5) on the
// raw fingerprints, in volts², into a fresh waveform. Both fingerprints must
// share length and rate.
func ErrorFunction(x, y IIP) *signal.Waveform { return ErrorFunctionInto(nil, x, y) }

// PeakError returns the largest error-function value, its bin index, and the
// round-trip time at which it occurs.
func PeakError(e *signal.Waveform) (value float64, index int, at float64) {
	idx, v := signal.PeakIndex(e)
	if idx < 0 {
		return 0, -1, 0
	}
	return v, idx, e.TimeOf(idx)
}

// MeanError returns the average error-function value — the noise floor when
// no attack is present.
func MeanError(e *signal.Waveform) float64 { return signal.Mean(e) }

// Contrast returns the peak-to-mean ratio of the error function. Localized
// tampering produces large contrast; noise alone stays near the ratio a χ²
// field produces.
func Contrast(e *signal.Waveform) float64 {
	m := MeanError(e)
	if m == 0 {
		return 0
	}
	v, _, _ := PeakError(e)
	return v / m
}

// LocalizeError converts an error-peak bin index to a distance along the
// line, given the propagation velocity.
func LocalizeError(e *signal.Waveform, index int, velocity float64) float64 {
	if index < 0 {
		return math.NaN()
	}
	return e.TimeOf(index) * velocity / 2
}
