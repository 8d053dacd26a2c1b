package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianPDFPeak(t *testing.T) {
	g := NewGaussian(2, 0.5)
	want := 1 / (0.5 * math.Sqrt(2*math.Pi))
	if got := g.PDF(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF at mean = %v, want %v", got, want)
	}
	if g.PDF(1) != g.PDF(3) {
		t.Errorf("PDF not symmetric about mean: %v vs %v", g.PDF(1), g.PDF(3))
	}
}

func TestGaussianCDFKnownValues(t *testing.T) {
	g := StdNormal
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
	}
	for _, c := range cases {
		if got := g.CDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestGaussianQuantileInvertsCDF(t *testing.T) {
	g := NewGaussian(-1, 2)
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.999} {
		x := g.Quantile(p)
		if got := g.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestGaussianCDFMonotone(t *testing.T) {
	g := NewGaussian(0.3, 1.7)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return g.CDF(a) <= g.CDF(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewGaussianPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sigma <= 0")
		}
	}()
	NewGaussian(0, 0)
}
