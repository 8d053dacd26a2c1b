package signal

import "math"

// GaussianSmooth convolves w with a unit-gain Gaussian kernel of the given
// standard deviation in samples, handling edges by renormalizing the kernel
// mass that falls inside the waveform. Smoothing at the probe-edge bandwidth
// removes reconstruction noise above the physical bandwidth without touching
// the IIP content.
func GaussianSmooth(w *Waveform, sigmaSamples float64) *Waveform {
	if sigmaSamples <= 0 {
		return w.Clone()
	}
	return GaussianSmoothInto(nil, w, GaussianKernel(sigmaSamples))
}

// kernelRadius is the Gaussian kernel half-width in samples: four sigmas,
// rounded up.
func kernelRadius(sigmaSamples float64) int {
	return int(math.Ceil(4 * sigmaSamples))
}

// fillGaussianKernel writes the unnormalized exp(-z²/2) taps into kernel,
// which must have length 2*radius+1.
func fillGaussianKernel(kernel []float64, radius int, sigmaSamples float64) {
	for i := range kernel {
		z := (float64(i) - float64(radius)) / sigmaSamples
		kernel[i] = math.Exp(-0.5 * z * z)
	}
}

// smoothWith runs the edge-renormalized convolution of GaussianSmooth from w
// into out; out must already have w's length and must not alias w.
func smoothWith(out, w *Waveform, kernel []float64, radius int) {
	for i := range w.Samples {
		var acc, mass float64
		for k, kv := range kernel {
			j := i + k - radius
			if j < 0 || j >= w.Len() {
				continue
			}
			acc += kv * w.Samples[j]
			mass += kv
		}
		if mass > 0 {
			out.Samples[i] = acc / mass
		}
	}
}

// Derivative returns the first difference of w scaled by the sample rate —
// the local-reflectivity view of a TDR step response.
func Derivative(w *Waveform) *Waveform {
	if w.Len() < 2 {
		return New(w.Rate, 0)
	}
	out := New(w.Rate, w.Len()-1)
	for i := range out.Samples {
		out.Samples[i] = (w.Samples[i+1] - w.Samples[i]) * w.Rate
	}
	return out
}
