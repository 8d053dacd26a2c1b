package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestChildIndependentOfParentConsumption(t *testing.T) {
	a := New(7)
	a.Float64() // consume some parent state
	a.Float64()
	c1 := a.Child("noise")
	b := New(7)
	c2 := b.Child("noise")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("child stream depends on parent consumption")
		}
	}
}

func TestChildLabelsDiffer(t *testing.T) {
	s := New(7)
	if s.Child("a").Float64() == s.Child("b").Float64() {
		t.Error("differently labelled children produced identical first samples")
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(1)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.Gaussian(3, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(2)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform sample %v out of range", x)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(3)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Errorf("Bool(0.25) frequency = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(4)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSeedAccessor(t *testing.T) {
	if New(99).Seed() != 99 {
		t.Error("Seed accessor mismatch")
	}
}

func TestChildNIndependentOfParentConsumption(t *testing.T) {
	a := New(42)
	b := New(42)
	b.Float64() // consume the parent; children must not notice
	ca, cb := a.ChildN("bin", 7), b.ChildN("bin", 7)
	for i := 0; i < 100; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("ChildN depends on parent consumption (draw %d)", i)
		}
	}
}

func TestChildNIndicesDiffer(t *testing.T) {
	p := New(42)
	seen := make(map[uint64]uint64)
	for n := uint64(0); n < 343; n++ {
		s := p.ChildN("bin", n).Seed()
		if prev, dup := seen[s]; dup {
			t.Fatalf("ChildN seeds collide: indices %d and %d", prev, n)
		}
		seen[s] = n
	}
	if p.ChildN("bin", 0).Seed() == p.Child("bin").Seed() {
		t.Error("ChildN(label, 0) must not collide with Child(label)")
	}
}

// TestNormFloat64sMatchesGaussian pins the batched fill to the per-call
// draw: scaling each filled normal the way Gaussian does must reproduce a
// twin stream's Gaussian sequence bit for bit, and leave both streams in
// the same state.
func TestNormFloat64sMatchesGaussian(t *testing.T) {
	const sigma = 0.4e-3
	a, b := New(31), New(31)
	buf := make([]float64, 257)
	a.NormFloat64s(buf)
	for i, n := range buf {
		if got, want := 0+sigma*n, b.Gaussian(0, sigma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: filled %v, Gaussian %v", i, got, want)
		}
	}
	if a.Float64() != b.Float64() {
		t.Fatal("fill left the stream in a different state")
	}
}
