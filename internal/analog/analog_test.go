package analog

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

func TestCouplerOutput(t *testing.T) {
	back := signal.FromSamples(1, []float64{1, 2})
	fwd := signal.FromSamples(1, []float64{10, 10})
	c := Coupler{Factor: 0.5, Directivity: 0.1}
	out := c.OutputInto(nil, back, fwd)
	// 0.5*back + 0.5*0.1*fwd
	if math.Abs(out.Samples[0]-1.0) > 1e-12 {
		t.Errorf("sample 0 = %v, want 1.0", out.Samples[0])
	}
	if math.Abs(out.Samples[1]-1.5) > 1e-12 {
		t.Errorf("sample 1 = %v, want 1.5", out.Samples[1])
	}
}

func TestIdealCouplerIgnoresForward(t *testing.T) {
	back := signal.FromSamples(1, []float64{1})
	fwd := signal.FromSamples(1, []float64{100})
	c := Coupler{Factor: 0.2}
	if got := c.OutputInto(nil, back, fwd).Samples[0]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ideal coupler output = %v, want 0.2", got)
	}
	// Nil forward wave is allowed.
	c.Directivity = 0.1
	if got := c.OutputInto(nil, back, nil).Samples[0]; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("nil-forward output = %v, want 0.2", got)
	}
}

func TestComparatorProbabilityTracksCDF(t *testing.T) {
	sigma := 1e-3
	c := NewComparator(sigma, 0, rng.New(1))
	const trials = 100000
	// At vsig = vref + sigma the ones probability should be Φ(1) ≈ 0.841.
	ones := 0
	for i := 0; i < trials; i++ {
		if c.Sample(sigma, 0) {
			ones++
		}
	}
	p := float64(ones) / trials
	if math.Abs(p-0.8413) > 0.01 {
		t.Errorf("P(Y=1) at +1σ = %v, want ~0.841", p)
	}
}

func TestComparatorOffset(t *testing.T) {
	c := NewComparator(1e-6, 0.5, rng.New(2))
	// Offset shifts the effective signal: vsig 0 vs vref 0.4 with +0.5
	// offset should almost always fire.
	ones := 0
	for i := 0; i < 1000; i++ {
		if c.Sample(0, 0.4) {
			ones++
		}
	}
	if ones < 990 {
		t.Errorf("offset comparator fired only %d/1000", ones)
	}
}

func TestComparatorPanicsOnBadNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewComparator(0, 0, rng.New(1))
}

func TestTriangleModulatorPeriodAndBounds(t *testing.T) {
	m := NewTriangleModulator(2e6, 0.01, 1)
	if m.Period() != 0.5e-6 {
		t.Errorf("Period = %v", m.Period())
	}
	for i := 0; i < 1000; i++ {
		v := m.Level(float64(i) * 3.7e-9)
		if math.Abs(v) > 0.01 {
			t.Fatalf("modulator level %v exceeds amplitude", v)
		}
	}
}

func TestTriangleModulatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTriangleModulator(0, 1, 1)
}

func TestFixedReference(t *testing.T) {
	f := FixedReference(0.25)
	if f.Level(123) != 0.25 || f.Level(0) != 0.25 {
		t.Error("fixed reference should be constant")
	}
	if f.Period() <= 0 {
		t.Error("period must be positive")
	}
}

func TestSampleWithMatchesOwnStream(t *testing.T) {
	// SampleWith(s, ...) with an identically-derived stream must reproduce
	// Sample's decisions exactly — the property the parallel measurement
	// engine relies on when it hands each ETS bin its own stream child.
	own := NewComparator(1e-3, 0.2e-3, rng.New(5).Child("noise"))
	ext := NewComparator(1e-3, 0.2e-3, nil)
	s := rng.New(5).Child("noise")
	for i := 0; i < 1000; i++ {
		vsig := float64(i%7) * 1e-4
		if own.Sample(vsig, 3e-4) != ext.SampleWith(s, vsig, 3e-4) {
			t.Fatalf("decision %d diverged", i)
		}
	}
}
