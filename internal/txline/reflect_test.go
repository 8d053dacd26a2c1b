package txline

import (
	"math"
	"testing"
	"testing/quick"

	"divot/internal/rng"
	"divot/internal/signal"
)

const (
	testRate = 89.6e9 // 1/11.16ps, the ETS-equivalent rate
	testN    = 360    // covers ~4 ns, a bit past the 3.33 ns round trip
)

func reflectAt(l *Line, deltaT, stretch float64) *signal.Waveform {
	return l.Reflect(DefaultProbe(), deltaT, stretch, testRate, testN)
}

func TestReflectDeterministic(t *testing.T) {
	l := testLine("L", 10)
	a := reflectAt(l, 0, 1)
	b := reflectAt(l, 0, 1)
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("reflection synthesis should be deterministic")
		}
	}
}

func TestReflectionIsSmall(t *testing.T) {
	// Back-reflections from percent-level inhomogeneity must be far below
	// the incident amplitude — the paper stresses SNR below 1.
	l := testLine("L", 11)
	w := reflectAt(l, 0, 1)
	if peak := signal.MaxAbs(w); peak > 0.1*DefaultProbe().Amplitude {
		t.Errorf("reflection peak %v too large vs incident %v", peak, DefaultProbe().Amplitude)
	}
	if signal.Energy(w) == 0 {
		t.Error("reflection should be nonzero")
	}
}

func TestPassivity(t *testing.T) {
	// The reflected waveform must never exceed the incident amplitude:
	// the line is a passive structure.
	f := func(seed uint64) bool {
		l := New("p", DefaultConfig(), rng.New(seed))
		w := reflectAt(l, 0, 1)
		return signal.MaxAbs(w) < DefaultProbe().Amplitude
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func derivative(w *signal.Waveform) *signal.Waveform {
	d := signal.New(w.Rate, w.Len()-1)
	for i := range d.Samples {
		d.Samples[i] = w.Samples[i+1] - w.Samples[i]
	}
	return d
}

func TestDistinctLinesHaveDistinctReflections(t *testing.T) {
	a := reflectAt(testLine("A", 20), 0, 1)
	b := reflectAt(testLine("B", 21), 0, 1)
	// Raw step responses share macroscopic features (termination step at a
	// fixed position), so some correlation remains; it must still be well
	// below a genuine match.
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(a), signal.RemoveMean(b))
	if sim > 0.95 {
		t.Errorf("distinct lines correlate at %v; IIPs should differ", sim)
	}
	// The local-reflectivity view (derivative) isolates the intrinsic
	// inhomogeneity and must decorrelate almost completely.
	dsim := signal.NormalizedInnerProduct(derivative(a), derivative(b))
	if math.Abs(dsim) > 0.4 {
		t.Errorf("distinct lines' reflectivity profiles correlate at %v", dsim)
	}
}

func TestSameLineReflectionsMatch(t *testing.T) {
	l := testLine("L", 22)
	a := reflectAt(l, 0, 1)
	b := reflectAt(l, 0.2, 1) // tiny ambient drift
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(a), signal.RemoveMean(b))
	if sim < 0.99 {
		t.Errorf("same line under tiny drift correlates at only %v", sim)
	}
}

func TestTerminationChangeShowsAtLineEnd(t *testing.T) {
	l := testLine("L", 23)
	before := reflectAt(l, 0, 1)
	l.SetTermination(110) // Trojan chip with very different input impedance
	after := reflectAt(l, 0, 1)
	diff := signal.Sub(after, before)
	peakIdx, _ := signal.PeakIndex(diff)
	peakTime := diff.TimeOf(peakIdx)
	rt := l.RoundTripTime()
	// Localization precision is limited by the probe rise time (~120 ps) —
	// the step difference saturates a couple of rise times after arrival.
	if peakTime < rt-0.1e-9 || peakTime > rt+0.4e-9 {
		t.Errorf("termination-change peak at %v s, want near round trip %v s", peakTime, rt)
	}
	// Before the round-trip time the waveform must be (nearly) unchanged.
	early := diff.Slice(0, int(0.8*rt*testRate))
	if signal.MaxAbs(early) > 1e-12 {
		t.Errorf("termination change leaked into early samples: %v", signal.MaxAbs(early))
	}
}

func TestMidlinePerturbationLocalized(t *testing.T) {
	l := testLine("L", 24)
	before := reflectAt(l, 0, 1)
	pos := 0.10
	l.ApplyPerturbation("probe", Perturbation{Position: pos, Extent: 2e-3, DeltaZ: 3})
	after := reflectAt(l, 0, 1)
	diff := signal.Sub(after, before)
	peakIdx, _ := signal.PeakIndex(diff)
	peakPos := diff.TimeOf(peakIdx) * l.Config().Velocity / 2
	if math.Abs(peakPos-pos) > 0.01 {
		t.Errorf("perturbation localized at %v m, want ~%v m", peakPos, pos)
	}
}

func TestStretchMovesTerminationReflection(t *testing.T) {
	l := testLine("L", 25)
	l.SetTermination(100) // strong, easily tracked feature
	a := reflectAt(l, 0, 1)
	b := reflectAt(l, 0, 1.01)
	// The termination step is the dominant feature; locate it via the
	// difference against an unterminated-window baseline: compare where the
	// last big change happens. Simpler: the waveforms should disagree most
	// near the (moved) termination edge.
	diff := signal.Sub(a, b)
	idx, _ := signal.PeakIndex(diff)
	rt := l.RoundTripTime()
	if math.Abs(diff.TimeOf(idx)-rt)/rt > 0.1 {
		t.Errorf("stretch difference peaks at %v, want near %v", diff.TimeOf(idx), rt)
	}
}

func TestSecondOrderEchoSmall(t *testing.T) {
	l := testLine("L", 26)
	l.SetTermination(100)
	p := DefaultProbe()
	p.SecondOrder = true
	n := int(2.2 * l.RoundTripTime() * testRate)
	with := l.Reflect(p, 0, 1, testRate, n)
	p.SecondOrder = false
	without := l.Reflect(p, 0, 1, testRate, n)
	diff := signal.Sub(with, without)
	idx, _ := signal.PeakIndex(diff)
	// Echo arrives at twice the round trip (localized to within a rise time).
	if math.Abs(diff.TimeOf(idx)-2*l.RoundTripTime()) > 0.4e-9 {
		t.Errorf("echo at %v, want ~%v", diff.TimeOf(idx), 2*l.RoundTripTime())
	}
	if signal.MaxAbs(diff) > 0.1*signal.MaxAbs(with) {
		t.Error("second-order echo should be a small correction")
	}
}

func TestLossAttenuatesFarReflections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossDBPerMeter = 0
	noLoss := New("L", cfg, rng.New(27))
	cfg.LossDBPerMeter = 20
	lossy := New("L", cfg, rng.New(27))
	a := reflectAt(noLoss, 0, 1)
	b := reflectAt(lossy, 0, 1)
	// Compare the energy of the far half of the waveform: loss must reduce it.
	half := testN / 2
	ea := signal.Energy(a.Slice(half, testN))
	eb := signal.Energy(b.Slice(half, testN))
	if eb >= ea {
		t.Errorf("far-end energy with loss (%v) should be below lossless (%v)", eb, ea)
	}
}
