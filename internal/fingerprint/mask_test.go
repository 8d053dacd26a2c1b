package fingerprint

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

// noisyPair synthesizes two noisy observations of the same smooth waveform.
func noisyPair(seed uint64, n int, sigma float64) (*signal.Waveform, *signal.Waveform) {
	st := rng.New(seed)
	truth := signal.New(1e9, n)
	for i := range truth.Samples {
		x := float64(i) / float64(n)
		truth.Samples[i] = math.Sin(7*x*2*math.Pi)*1e-3 + math.Sin(2.3*x*2*math.Pi)*0.5e-3
	}
	a, b := truth.Clone(), truth.Clone()
	sa, sb := st.Child("a"), st.Child("b")
	for i := range a.Samples {
		a.Samples[i] += sa.Gaussian(0, sigma)
		b.Samples[i] += sb.Gaussian(0, sigma)
	}
	return a, b
}

func TestMaskBasics(t *testing.T) {
	m := NewBinMask(10)
	if !m.Empty() || m.Count() != 0 || m.Fraction() != 0 {
		t.Fatal("fresh mask not empty")
	}
	m[3], m[7] = true, true
	if m.Count() != 2 || m.Fraction() != 0.2 {
		t.Fatalf("count/fraction wrong: %d %v", m.Count(), m.Fraction())
	}
	d := m.Dilate(1)
	for _, i := range []int{2, 3, 4, 6, 7, 8} {
		if !d[i] {
			t.Errorf("dilated mask misses bin %d", i)
		}
	}
	if d.Count() != 6 {
		t.Errorf("dilated count = %d", d.Count())
	}
	if m.Count() != 2 {
		t.Error("dilate mutated the receiver")
	}
}

func TestRepairInterpolates(t *testing.T) {
	w := signal.New(1e9, 8)
	for i := range w.Samples {
		w.Samples[i] = float64(i)
	}
	w.Samples[3], w.Samples[4] = 1e6, -1e6 // rail garbage
	m := NewBinMask(8)
	m[3], m[4] = true, true
	r := Repair(w, m)
	if r.Samples[3] != 3 || r.Samples[4] != 4 {
		t.Errorf("interior repair: got %v %v, want 3 4", r.Samples[3], r.Samples[4])
	}
	if w.Samples[3] != 1e6 {
		t.Error("repair mutated input")
	}

	// Edge runs hold the nearest live value.
	m2 := NewBinMask(8)
	m2[0], m2[7] = true, true
	w.Samples[0], w.Samples[7] = 1e6, -1e6
	r2 := Repair(w, m2)
	if r2.Samples[0] != r2.Samples[1] || r2.Samples[7] != r2.Samples[6] {
		t.Errorf("edge repair: %v %v", r2.Samples[0], r2.Samples[7])
	}
}

// TestMaskedReducesToUnmasked pins the compatibility contract: an empty mask
// changes nothing, bit for bit.
func TestMaskedReducesToUnmasked(t *testing.T) {
	a, b := noisyPair(1, 343, 0.2e-3)
	p := DefaultPipeline()
	fa, fb := p.FromWaveform(a), p.FromWaveform(b)
	if got, want := MaskedSimilarity(fa, fb, nil), Similarity(fa, fb); got != want {
		t.Errorf("nil-mask similarity %v != %v", got, want)
	}
	empty := NewBinMask(343)
	if got, want := MaskedSimilarity(fa, fb, empty), Similarity(fa, fb); got != want {
		t.Errorf("empty-mask similarity %v != %v", got, want)
	}
	fm := p.FromWaveformMasked(a, nil)
	for i := range fa.Raw.Samples {
		if fa.Raw.Samples[i] != fm.Raw.Samples[i] {
			t.Fatal("FromWaveformMasked(nil) differs from FromWaveform")
		}
	}
	e, em := ErrorFunction(fa, fb), MaskedErrorFunction(fa, fb, nil)
	for i := range e.Samples {
		if e.Samples[i] != em.Samples[i] {
			t.Fatal("MaskedErrorFunction(nil) differs from ErrorFunction")
		}
	}
}

// TestMaskedMatchingSurvivesDeadBins is the graceful-degradation property:
// rail garbage in masked bins must not break a genuine match once repaired
// and masked, while without the mask it does.
func TestMaskedMatchingSurvivesDeadBins(t *testing.T) {
	a, b := noisyPair(2, 343, 0.2e-3)
	p := DefaultPipeline()
	enrolled := p.FromWaveform(b)

	// Kill 10% of bins with rail-clamped garbage in the measured waveform.
	st := rng.New(99).Child("dead")
	mask := NewBinMask(343)
	bad := a.Clone()
	for i := range bad.Samples {
		if st.ChildN("bin", uint64(i)).Bool(0.10) {
			mask[i] = true
			bad.Samples[i] = -20e-3
		}
	}

	naive := Similarity(p.FromWaveform(bad), enrolled)
	repaired := p.FromWaveformMasked(bad, mask)
	masked := MaskedSimilarity(repaired, enrolled, mask.Dilate(2))
	clean := Similarity(p.FromWaveform(a), enrolled)

	if naive > 0.7*clean {
		t.Errorf("dead bins barely hurt the naive path (%.3f vs clean %.3f) — test not probing anything", naive, clean)
	}
	if masked < clean-0.05 {
		t.Errorf("masked match %.4f much worse than clean %.4f", masked, clean)
	}

	// The repaired bins' residuals must not fake a tamper peak.
	d := TamperDetector{PeakThreshold: 1, Velocity: 1.5e8}
	e := MaskedErrorFunction(repaired, enrolled, mask.Dilate(2))
	peakMasked, _, _ := PeakError(e)
	peakNaive, _, _ := PeakError(ErrorFunction(p.FromWaveform(bad), enrolled))
	if peakMasked > peakNaive/10 {
		t.Errorf("masked error peak %.3g not much below naive %.3g", peakMasked, peakNaive)
	}
	_ = d
}

// TestMaskedMatchingStillRejectsImpostor: renormalization must not let an
// unrelated waveform pass just because bins are masked.
func TestMaskedMatchingStillRejectsImpostor(t *testing.T) {
	a, _ := noisyPair(3, 343, 0.2e-3)
	c, _ := noisyPair(4, 343, 0.2e-3)
	// Different truth: regenerate with a different shape.
	for i := range c.Samples {
		x := float64(i) / 343
		c.Samples[i] = math.Sin(11*x*2*math.Pi) * 1e-3
	}
	p := DefaultPipeline()
	mask := NewBinMask(343)
	for i := 0; i < 34; i++ {
		mask[i*10] = true
	}
	s := MaskedSimilarity(p.FromWaveformMasked(c, mask), p.FromWaveform(a), mask.Dilate(2))
	if s > 0.5 {
		t.Errorf("impostor scores %.3f under mask", s)
	}
}

func TestMeanErrorMasked(t *testing.T) {
	e := signal.New(1e9, 4)
	e.Samples = []float64{1, 100, 3, 0}
	m := NewBinMask(4)
	m[1] = true
	if got := MeanErrorMasked(e, m); got != (1+3+0)/3.0 {
		t.Errorf("masked mean = %v", got)
	}
	if got := MeanErrorMasked(e, nil); got != 26 {
		t.Errorf("unmasked mean = %v", got)
	}
}
