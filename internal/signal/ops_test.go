package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randWave(r *rand.Rand, n int) *Waveform {
	w := New(1e9, n)
	for i := range w.Samples {
		w.Samples[i] = r.NormFloat64()
	}
	return w
}

func TestAddSubScale(t *testing.T) {
	a := FromSamples(1, []float64{1, 2, 3})
	b := FromSamples(1, []float64{4, 5, 6})
	diff := Sub(b, a)
	if diff.Samples[0] != 3 || diff.Samples[2] != 3 {
		t.Errorf("Sub = %v", diff.Samples)
	}
	sc := Scale(a, -2)
	if sc.Samples[1] != -4 {
		t.Errorf("Scale = %v", sc.Samples)
	}
	AddInPlace(a, b)
	if a.Samples[1] != 7 {
		t.Errorf("AddInPlace = %v", a.Samples)
	}
}

func TestGridMismatchPanics(t *testing.T) {
	a := New(1, 3)
	b := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on rate mismatch")
		}
	}()
	Sub(a, b)
}

func TestInnerProductAndEnergy(t *testing.T) {
	a := FromSamples(1, []float64{1, 2, 2})
	if got := Energy(a); got != 9 {
		t.Errorf("Energy = %v", got)
	}
	b := FromSamples(1, []float64{1, 0, 1})
	if got := InnerProduct(a, b); got != 3 {
		t.Errorf("InnerProduct = %v", got)
	}
}

func TestNormalizedInnerProductProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randWave(r, 64)
		b := randWave(r, 64)
		s := NormalizedInnerProduct(a, b)
		if s < -1-1e-12 || s > 1+1e-12 {
			t.Fatalf("similarity %v out of [-1,1]", s)
		}
		if sym := NormalizedInnerProduct(b, a); math.Abs(sym-s) > 1e-12 {
			t.Fatalf("similarity not symmetric: %v vs %v", s, sym)
		}
	}
	a := randWave(r, 64)
	if got := NormalizedInnerProduct(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-similarity = %v, want 1", got)
	}
	zero := New(1e9, 64)
	if got := NormalizedInnerProduct(a, zero); got != 0 {
		t.Errorf("similarity with zero waveform = %v, want 0", got)
	}
}

func TestRemoveMean(t *testing.T) {
	w := FromSamples(1, []float64{1, 3})
	rm := RemoveMean(w)
	if rm.Samples[0] != -1 || rm.Samples[1] != 1 {
		t.Errorf("RemoveMean = %v", rm.Samples)
	}
	if got := Mean(rm); math.Abs(got) > 1e-15 {
		t.Errorf("mean after RemoveMean = %v", got)
	}
}

func TestPeakIndex(t *testing.T) {
	w := FromSamples(1, []float64{0.1, -5, 2})
	i, v := PeakIndex(w)
	if i != 1 || v != -5 {
		t.Errorf("PeakIndex = %d, %v", i, v)
	}
	if MaxAbs(w) != 5 {
		t.Errorf("MaxAbs = %v", MaxAbs(w))
	}
	if i, _ := PeakIndex(New(1, 0)); i != -1 {
		t.Error("empty waveform should return -1")
	}
}

func TestCauchySchwarz(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		for _, v := range append(xs[:n:n], ys[:n]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // products would overflow float64
			}
		}
		a := FromSamples(1, xs[:n])
		b := FromSamples(1, ys[:n])
		ip := InnerProduct(a, b)
		return ip*ip <= Energy(a)*Energy(b)*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemoveMeanInPlaceMatchesRemoveMean(t *testing.T) {
	w := New(1e9, 5)
	copy(w.Samples, []float64{3, -1, 4, 1, 5})
	want := RemoveMean(w)
	got := RemoveMeanInPlace(w)
	if got != w {
		t.Error("RemoveMeanInPlace must return its argument")
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Errorf("sample %d: in-place %v, copy %v", i, got.Samples[i], want.Samples[i])
		}
	}
}
