package fingerprint

import (
	"fmt"

	"divot/internal/signal"
)

// Workspace is the reusable working memory of one endpoint's fingerprint
// post-processing: the repaired waveform, the smoothed Raw view, the
// comparison view, the error function, and the hoisted smoothing kernel.
// The XxxWith methods below recycle it across rounds so the steady-state
// monitoring loop allocates nothing; a nil Workspace allocates instead.
// Results are bit-identical either way.
//
// Ownership rules: a workspace serves one scoring at a time, and the IIPs
// and verdicts produced through it alias its buffers — valid until the next
// XxxWith call on the same workspace. Enrollment paths (Average, Store) must
// use the allocating forms, which own their memory.
type Workspace struct {
	repair *signal.Waveform
	smooth *signal.Waveform
	cmp    *signal.Waveform
	err    *signal.Waveform

	kernel      []float64
	kernelSigma float64
}

// FromWaveformWith is FromWaveform recycling the workspace's buffers; the
// returned IIP aliases them. A nil workspace falls back to FromWaveform.
func (p Pipeline) FromWaveformWith(ws *Workspace, w *signal.Waveform) IIP {
	if ws == nil {
		return p.FromWaveform(w)
	}
	if p.SmoothSigmaBins > 0 {
		if ws.kernel == nil || ws.kernelSigma != p.SmoothSigmaBins {
			ws.kernel = signal.GaussianKernel(p.SmoothSigmaBins)
			ws.kernelSigma = p.SmoothSigmaBins
		}
		ws.smooth = signal.GaussianSmoothInto(ws.smooth, w, ws.kernel)
	} else {
		ws.smooth = signal.CopyInto(ws.smooth, w)
	}
	switch p.Mode {
	case CompareDerivative:
		ws.cmp = signal.DerivativeInto(ws.cmp, ws.smooth)
	default:
		ws.cmp = signal.RemoveMeanInto(ws.cmp, ws.smooth)
	}
	return IIP{Raw: ws.smooth, cmp: ws.cmp}
}

// FromWaveformMaskedWith is FromWaveformMasked recycling the workspace's
// buffers; the returned IIP aliases them. A nil workspace falls back to
// FromWaveformMasked.
func (p Pipeline) FromWaveformMaskedWith(ws *Workspace, w *signal.Waveform, m BinMask) IIP {
	if ws == nil {
		return p.FromWaveformMasked(w, m)
	}
	if !m.Empty() {
		ws.repair = RepairInto(ws.repair, w, m)
		w = ws.repair
	}
	return p.FromWaveformWith(ws, w)
}

// ErrorFunctionInto is ErrorFunction writing into a reusable destination (nil
// allocates a fresh one), which must not alias either fingerprint's Raw
// view.
func ErrorFunctionInto(dst *signal.Waveform, x, y IIP) *signal.Waveform {
	if !x.Valid() || !y.Valid() {
		panic("fingerprint: error function of invalid fingerprints")
	}
	a, b := x.Raw, y.Raw
	if a.Rate != b.Rate || a.Len() != b.Len() {
		panic(fmt.Sprintf("fingerprint: error function grid mismatch (%v,%d) vs (%v,%d)",
			a.Rate, a.Len(), b.Rate, b.Len()))
	}
	dst = signal.Reuse(dst, a.Rate, a.Len())
	for i := range a.Samples {
		v := a.Samples[i] - b.Samples[i]
		dst.Samples[i] = v * v
	}
	return dst
}

// MaskedErrorFunctionInto is MaskedErrorFunction writing into a reusable
// destination (nil allocates a fresh one).
func MaskedErrorFunctionInto(dst *signal.Waveform, x, y IIP, m BinMask) *signal.Waveform {
	e := ErrorFunctionInto(dst, x, y)
	if m.Empty() {
		return e
	}
	for i := range e.Samples {
		if i < len(m) && m[i] {
			e.Samples[i] = 0
		}
	}
	return e
}

// CheckMaskedWith is Check over live bins only, recycling the workspace's
// error buffer (a nil workspace allocates one): masked bins cannot contribute
// the peak, and the contrast denominator averages live bins. An empty mask
// reproduces Check exactly.
func (d TamperDetector) CheckMaskedWith(ws *Workspace, measured, reference IIP, m BinMask) TamperVerdict {
	if ws == nil {
		ws = &Workspace{}
	}
	ws.err = MaskedErrorFunctionInto(ws.err, measured, reference, m)
	e := ws.err
	value, idx, at := PeakError(e)
	v := TamperVerdict{
		Tampered:  value > d.PeakThreshold,
		PeakError: value,
		Position:  LocalizeError(e, idx, d.Velocity),
		At:        at,
	}
	if mean := MeanErrorMasked(e, m); mean > 0 {
		v.Contrast = value / mean
	}
	return v
}
