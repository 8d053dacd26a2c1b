package fingerprint

import (
	"math"

	"divot/internal/signal"
)

// BinMask marks ETS bins whose reconstructed samples carry no information —
// dead acquisition slices, stuck counters, rail-clamped reconstructions. The
// protocol layer maintains one per endpoint and threads it through matching
// so a partially dead instrument degrades gracefully instead of failing: the
// similarity (Eq. 4) and error function (Eq. 5) renormalize over the live
// bins only. A nil or all-false mask reproduces the unmasked path exactly.
type BinMask []bool

// NewBinMask returns an all-live mask over n bins.
func NewBinMask(n int) BinMask { return make(BinMask, n) }

// Count returns the number of masked bins.
func (m BinMask) Count() int {
	n := 0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// Empty reports whether no bin is masked.
func (m BinMask) Empty() bool { return m.Count() == 0 }

// Fraction returns the masked share of all bins (0 for a nil mask).
func (m BinMask) Fraction() float64 {
	if len(m) == 0 {
		return 0
	}
	return float64(m.Count()) / float64(len(m))
}

// Clone returns an independent copy.
func (m BinMask) Clone() BinMask {
	if m == nil {
		return nil
	}
	out := make(BinMask, len(m))
	copy(out, m)
	return out
}

// Dilate returns a mask that additionally covers `guard` bins on each side of
// every masked bin. Matching excludes the guard band because smoothing leaks
// a repaired bin's residual error into its neighbours. guard <= 0 returns the
// mask unchanged.
func (m BinMask) Dilate(guard int) BinMask {
	if guard <= 0 || m.Empty() {
		return m
	}
	out := make(BinMask, len(m))
	for i, b := range m {
		if !b {
			continue
		}
		lo, hi := i-guard, i+guard
		if lo < 0 {
			lo = 0
		}
		if hi >= len(m) {
			hi = len(m) - 1
		}
		for j := lo; j <= hi; j++ {
			out[j] = true
		}
	}
	return out
}

// Repair returns a copy of w with masked bins replaced by linear
// interpolation between the nearest live neighbours (edge runs are held at
// the nearest live value). Repairing before smoothing keeps a dead bin's
// rail-clamped spike from bleeding into live bins through the smoothing
// kernel; the repaired bins themselves are excluded from matching by the
// mask.
func Repair(w *signal.Waveform, m BinMask) *signal.Waveform {
	return RepairInto(nil, w, m)
}

// RepairInto is Repair with a reusable destination (nil allocates a fresh
// one), which must not alias w. An empty mask returns w itself, untouched,
// exactly like Repair.
func RepairInto(dst *signal.Waveform, w *signal.Waveform, m BinMask) *signal.Waveform {
	if m.Empty() {
		return w
	}
	out := signal.CopyInto(dst, w)
	n := out.Len()
	i := 0
	for i < n {
		if i >= len(m) || !m[i] {
			i++
			continue
		}
		j := i
		for j < n && j < len(m) && m[j] {
			j++
		}
		// Masked run [i, j): interpolate between live neighbours i-1 and j.
		switch {
		case i == 0 && j == n:
			for k := i; k < j; k++ {
				out.Samples[k] = 0
			}
		case i == 0:
			for k := i; k < j; k++ {
				out.Samples[k] = out.Samples[j]
			}
		case j == n:
			for k := i; k < j; k++ {
				out.Samples[k] = out.Samples[i-1]
			}
		default:
			a, b := out.Samples[i-1], out.Samples[j]
			span := float64(j - (i - 1))
			for k := i; k < j; k++ {
				t := float64(k-(i-1)) / span
				out.Samples[k] = a + (b-a)*t
			}
		}
		i = j
	}
	return out
}

// FromWaveformMasked is FromWaveform with dead-bin repair applied first. An
// empty mask reproduces FromWaveform exactly.
func (p Pipeline) FromWaveformMasked(w *signal.Waveform, m BinMask) IIP {
	return p.FromWaveform(Repair(w, m))
}

// cmpMasked reports whether comparison-view sample i is masked. The
// derivative view's sample i is computed from raw bins i and i+1, so it is
// invalid when either is masked; the mean-removed view maps one-to-one.
// Answering per sample keeps masked scoring allocation-free.
func (f IIP) cmpMasked(m BinMask, i int) bool {
	if i < len(m) && m[i] {
		return true
	}
	return f.cmp.Len() != f.Raw.Len() && i+1 < len(m) && m[i+1]
}

// MaskedSimilarity is Similarity (Eq. 4) restricted to live bins: the cosine
// of the two comparison views over the unmasked support, renormalized there,
// clamped to [0, 1]. An empty mask reproduces Similarity exactly.
func MaskedSimilarity(x, y IIP, m BinMask) float64 {
	if m.Empty() {
		return Similarity(x, y)
	}
	if !x.Valid() || !y.Valid() {
		return 0
	}
	n := x.cmp.Len()
	if y.cmp.Len() < n {
		n = y.cmp.Len()
	}
	var dot, xx, yy float64
	for i := 0; i < n; i++ {
		if x.cmpMasked(m, i) {
			continue
		}
		a, b := x.cmp.Samples[i], y.cmp.Samples[i]
		dot += a * b
		xx += a * a
		yy += b * b
	}
	if xx == 0 || yy == 0 {
		return 0
	}
	s := dot / math.Sqrt(xx*yy)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// MaskedErrorFunction is ErrorFunction (Eq. 5) with masked bins zeroed, so a
// repaired bin's residual cannot masquerade as a tamper peak. An empty mask
// reproduces ErrorFunction exactly.
func MaskedErrorFunction(x, y IIP, m BinMask) *signal.Waveform {
	return MaskedErrorFunctionInto(nil, x, y, m)
}

// MeanErrorMasked returns the mean error over live bins only — the degraded
// instrument's noise floor.
func MeanErrorMasked(e *signal.Waveform, m BinMask) float64 {
	if m.Empty() {
		return MeanError(e)
	}
	var acc float64
	live := 0
	for i, v := range e.Samples {
		if i < len(m) && m[i] {
			continue
		}
		acc += v
		live++
	}
	if live == 0 {
		return 0
	}
	return acc / float64(live)
}

// AuthenticateMasked is Matcher.Authenticate scoring over live bins only.
func (mt Matcher) AuthenticateMasked(measured, enrolled IIP, m BinMask) AuthResult {
	s := MaskedSimilarity(measured, enrolled, m)
	return AuthResult{Score: s, Threshold: mt.Threshold, Accepted: s >= mt.Threshold}
}
