package fingerprint

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

// TestAveragerMatchesAverage proves the streaming fold is bit-identical to
// the slice-based Average, including after a Reset reusing the accumulator.
func TestAveragerMatchesAverage(t *testing.T) {
	p := DefaultPipeline()
	stream := rng.New(99)
	var av Averager
	for round := 0; round < 3; round++ {
		n := 3 + 2*round
		ws := make([]*signal.Waveform, n)
		av.Reset()
		for i := range ws {
			w := signal.New(89.6e9, 343)
			for j := range w.Samples {
				w.Samples[j] = stream.Gaussian(0, 1)
			}
			ws[i] = w
			av.Add(w)
		}
		want, err := p.Average(ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.FromAverage(&av, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameRaw(t, round, got, want)

		// With a mask, the mean is repaired before extraction: the same
		// fold and scale as Average, then FromWaveformMasked.
		m := NewBinMask(343)
		m[0], m[100], m[101], m[342-round] = true, true, true, true
		acc := signal.New(ws[0].Rate, ws[0].Len())
		for _, w := range ws {
			signal.AddInPlace(acc, w)
		}
		wantMasked := p.FromWaveformMasked(signal.Scale(acc, 1/float64(n)), m)
		gotMasked, err := p.FromAverage(&av, m)
		if err != nil {
			t.Fatal(err)
		}
		sameRaw(t, round, gotMasked, wantMasked)
		if av.Count() != n {
			t.Fatalf("round %d: count %d != %d", round, av.Count(), n)
		}
	}

	var empty Averager
	if _, err := p.FromAverage(&empty, nil); err == nil {
		t.Fatal("FromAverage on empty averager should error")
	}
}

// sameRaw fails unless two fingerprints' Raw views are bit-identical.
func sameRaw(t *testing.T, round int, got, want IIP) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("round %d: length %d != %d", round, got.Len(), want.Len())
	}
	for i := range want.Raw.Samples {
		if math.Float64bits(got.Raw.Samples[i]) != math.Float64bits(want.Raw.Samples[i]) {
			t.Fatalf("round %d: bin %d differs", round, i)
		}
	}
}
