package signal

import (
	"math"
	"testing"
)

func TestTriangleShape(t *testing.T) {
	freq, amp := 1e6, 0.5
	if got := triangle(0, freq, amp); got != -amp {
		t.Errorf("t=0 value = %v, want %v", got, -amp)
	}
	if got := triangle(0.25e-6, freq, amp); math.Abs(got) > 1e-12 {
		t.Errorf("quarter period value = %v, want 0", got)
	}
	if got := triangle(0.5e-6, freq, amp); math.Abs(got-amp) > 1e-12 {
		t.Errorf("half period value = %v, want %v", got, amp)
	}
	// Periodicity.
	if a, b := triangle(0.1e-6, freq, amp), triangle(3.1e-6, freq, amp); math.Abs(a-b) > 1e-9 {
		t.Errorf("triangle not periodic: %v vs %v", a, b)
	}
}

func TestTriangleBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := triangle(float64(i)*13e-9, 1e6, 1)
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("triangle value %v out of range", v)
		}
	}
}

func TestRCQuasiTriangleApproximatesTriangle(t *testing.T) {
	m := RCQuasiTriangle{Freq: 1e6, Amplitude: 1, TauRatio: 2}
	// With a long time constant the RC response is nearly linear: compare
	// correlation against the ideal triangle (phase-aligned: RC starts at
	// its minimum like triangle does).
	n := 1000
	rate := 1e9
	rc := m.Sample(rate, n)
	ideal := New(rate, n)
	for i := range ideal.Samples {
		ideal.Samples[i] = triangle(float64(i)/rate, 1e6, 1)
	}
	corr := NormalizedInnerProduct(RemoveMean(rc), RemoveMean(ideal))
	if corr < 0.97 {
		t.Errorf("RC quasi-triangle correlation with ideal = %v, want > 0.97", corr)
	}
}

func TestRCQuasiTriangleBounded(t *testing.T) {
	m := RCQuasiTriangle{Freq: 2e6, Amplitude: 0.3, TauRatio: 0.5}
	w := m.Sample(1e9, 5000)
	for i, v := range w.Samples {
		if v < -0.3-1e-9 || v > 0.3+1e-9 {
			t.Fatalf("sample %d = %v exceeds amplitude", i, v)
		}
	}
}

func TestRCQuasiTriangleSweepsLevels(t *testing.T) {
	// At its turning points the modulator should reach close to ±v0.
	m := RCQuasiTriangle{Freq: 1e6, Amplitude: 1, TauRatio: 1}
	w := m.Sample(1e9, 1000)
	lo, hi := w.Samples[0], w.Samples[0]
	for _, v := range w.Samples {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 0.2 || lo > -0.2 {
		t.Errorf("modulator swing [%v, %v] too small", lo, hi)
	}
	if math.Abs(hi+lo) > 0.05 {
		t.Errorf("modulator not symmetric: [%v, %v]", lo, hi)
	}
}

// triangle is the ideal triangle wave of the given frequency, swinging
// between -amplitude and +amplitude and starting at -amplitude at t=0: the
// shape the RC modulator approximates.
func triangle(t, freq, amplitude float64) float64 {
	phase := t * freq
	phase -= math.Floor(phase) // [0, 1)
	var v float64
	if phase < 0.5 {
		v = -1 + 4*phase // rising half
	} else {
		v = 3 - 4*phase // falling half
	}
	return amplitude * v
}
