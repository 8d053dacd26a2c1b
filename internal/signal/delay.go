package signal

// Stretch returns w resampled in time by factor s around t=0: sample i of the
// output is w evaluated at time (i/Rate)/s. s slightly above 1 stretches the
// waveform (features move later), modelling a mechanically elongated line.
func Stretch(w *Waveform, s float64) *Waveform {
	if s <= 0 {
		panic("signal: non-positive stretch factor")
	}
	out := New(w.Rate, w.Len())
	for i := range out.Samples {
		out.Samples[i] = w.At(float64(i) / w.Rate / s)
	}
	return out
}
