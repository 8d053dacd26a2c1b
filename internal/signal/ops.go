package signal

import "math"

// Sub returns a - b. Both waveforms must share rate and length.
func Sub(a, b *Waveform) *Waveform {
	sameGrid("Sub", a, b)
	out := New(a.Rate, a.Len())
	for i := range out.Samples {
		out.Samples[i] = a.Samples[i] - b.Samples[i]
	}
	return out
}

// Scale returns a copy of w with every sample multiplied by k.
func Scale(w *Waveform, k float64) *Waveform {
	out := New(w.Rate, w.Len())
	for i, v := range w.Samples {
		out.Samples[i] = k * v
	}
	return out
}

// AddInPlace adds b into a. Both waveforms must share rate and length.
func AddInPlace(a, b *Waveform) {
	sameGrid("AddInPlace", a, b)
	for i := range a.Samples {
		a.Samples[i] += b.Samples[i]
	}
}

// InnerProduct returns the sum over samples of a(n)*b(n) (Eq. 4 numerator of
// the paper before normalization).
func InnerProduct(a, b *Waveform) float64 {
	sameGrid("InnerProduct", a, b)
	var s float64
	for i := range a.Samples {
		s += a.Samples[i] * b.Samples[i]
	}
	return s
}

// Energy returns the sum of squared samples.
func Energy(w *Waveform) float64 {
	var s float64
	for _, v := range w.Samples {
		s += v * v
	}
	return s
}

// Mean returns the mean sample value.
func Mean(w *Waveform) float64 {
	if w.Len() == 0 {
		return 0
	}
	var s float64
	for _, v := range w.Samples {
		s += v
	}
	return s / float64(w.Len())
}

// RemoveMean returns a copy of w with the mean subtracted from every sample.
func RemoveMean(w *Waveform) *Waveform {
	m := Mean(w)
	out := New(w.Rate, w.Len())
	for i, v := range w.Samples {
		out.Samples[i] = v - m
	}
	return out
}

// RemoveMeanInPlace subtracts the mean from w's own samples and returns w —
// the scratch-reusing form of RemoveMean for hot paths that own their buffer
// (the measurement engine de-means the coupler output it just synthesized).
func RemoveMeanInPlace(w *Waveform) *Waveform {
	m := Mean(w)
	for i := range w.Samples {
		w.Samples[i] -= m
	}
	return w
}

// NormalizedInnerProduct returns the cosine similarity of a and b, in
// [-1, 1]. If either waveform has zero energy the result is 0.
func NormalizedInnerProduct(a, b *Waveform) float64 {
	ea, eb := Energy(a), Energy(b)
	if ea == 0 || eb == 0 {
		return 0
	}
	return InnerProduct(a, b) / math.Sqrt(ea*eb)
}

// PeakIndex returns the index of the sample with the largest absolute value
// and that value. It returns (-1, 0) for an empty waveform.
func PeakIndex(w *Waveform) (int, float64) {
	if w.Len() == 0 {
		return -1, 0
	}
	best, bv := 0, math.Abs(w.Samples[0])
	for i, v := range w.Samples[1:] {
		if a := math.Abs(v); a > bv {
			best, bv = i+1, a
		}
	}
	return best, w.Samples[best]
}

// MaxAbs returns the largest absolute sample value.
func MaxAbs(w *Waveform) float64 {
	_, v := PeakIndex(w)
	return math.Abs(v)
}
