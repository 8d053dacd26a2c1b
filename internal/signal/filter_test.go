package signal

import (
	"math"
	"math/rand"
	"testing"
)

func TestGaussianSmoothPreservesConstant(t *testing.T) {
	w := New(1, 50)
	for i := range w.Samples {
		w.Samples[i] = 3
	}
	s := GaussianSmooth(w, 2)
	for i, v := range s.Samples {
		if math.Abs(v-3) > 1e-9 {
			t.Fatalf("constant not preserved at %d: %v", i, v)
		}
	}
}

func TestGaussianSmoothReducesNoise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w := New(1, 1000)
	for i := range w.Samples {
		w.Samples[i] = r.NormFloat64()
	}
	s := GaussianSmooth(w, 3)
	if Energy(s) > 0.3*Energy(w) {
		t.Errorf("smoothing reduced noise energy only to %v of original",
			Energy(s)/Energy(w))
	}
}

func TestGaussianSmoothPreservesSlowSignal(t *testing.T) {
	w := New(100, 400)
	for i := range w.Samples {
		w.Samples[i] = math.Sin(2 * math.Pi * 1 * w.TimeOf(i)) // 1 Hz at 100 Sa/s
	}
	s := GaussianSmooth(w, 2)
	// A 1 Hz tone smoothed with sigma = 20 ms loses almost nothing.
	if Energy(s) < 0.95*Energy(w) {
		t.Errorf("slow signal energy dropped to %v", Energy(s)/Energy(w))
	}
}

func TestGaussianSmoothZeroSigmaCopies(t *testing.T) {
	w := FromSamples(1, []float64{1, 2, 3})
	s := GaussianSmooth(w, 0)
	s.Samples[0] = 99
	if w.Samples[0] != 1 {
		t.Error("zero-sigma smooth should return an independent copy")
	}
}

func TestDerivative(t *testing.T) {
	w := FromSamples(10, []float64{0, 1, 3, 3})
	d := Derivative(w)
	want := []float64{10, 20, 0}
	if d.Len() != 3 {
		t.Fatalf("derivative length %d", d.Len())
	}
	for i, v := range want {
		if d.Samples[i] != v {
			t.Errorf("derivative[%d] = %v, want %v", i, d.Samples[i], v)
		}
	}
	if Derivative(New(1, 1)).Len() != 0 {
		t.Error("derivative of a single sample should be empty")
	}
}
