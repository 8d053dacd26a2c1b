package txline

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

// reflectReference is the original combined superposition loop (windowed
// math.Erf plus per-event O(n) tail additions), kept verbatim as the
// reference for ReflectInto's prefix-sum tail and tabulated erf edge.
func reflectReference(l *Line, p Probe, deltaT, stretch float64, rate float64, n int) *signal.Waveform {
	stretch *= 1 + l.cfg.ThermalStretchPerC*deltaT
	z, term := l.effectiveProfileInto(nil, deltaT)
	segDt := 2 * l.cfg.SegmentLength / l.cfg.Velocity
	alpha := l.cfg.LossDBPerMeter * math.Ln10 / 20

	var events []reflectEvent
	for i := 0; i < len(z)-1; i++ {
		g := (z[i+1] - z[i]) / (z[i+1] + z[i])
		if g == 0 {
			continue
		}
		d := float64(i+1) * l.cfg.SegmentLength
		att := math.Exp(-2 * alpha * d)
		events = append(events, reflectEvent{t: float64(i+1) * segDt, a: g * att})
	}
	zLast := z[len(z)-1]
	gTerm := (term - zLast) / (term + zLast)
	attTerm := math.Exp(-2 * alpha * l.cfg.Length)
	tTerm := l.RoundTripTime()
	events = append(events, reflectEvent{t: tTerm, a: gTerm * attTerm})
	if p.SecondOrder {
		gSrc := (l.cfg.SourceZ - z[0]) / (l.cfg.SourceZ + z[0])
		echo := gTerm * gSrc * gTerm * math.Exp(-4*alpha*l.cfg.Length)
		events = append(events, reflectEvent{t: 2 * tTerm, a: echo})
	}

	out := signal.New(rate, n)
	sigma := p.RiseTime / 2.563
	window := 5 * sigma
	for _, ev := range events {
		tEv := ev.t * stretch
		amp := p.Amplitude * ev.a
		loIdx := int((tEv - window) * rate)
		hiIdx := int((tEv+window)*rate) + 1
		if loIdx < 0 {
			loIdx = 0
		}
		if hiIdx > n {
			hiIdx = n
		}
		for i := loIdx; i < hiIdx; i++ {
			t := float64(i)/rate - tEv
			out.Samples[i] += amp * 0.5 * (1 + math.Erf(t/(sigma*math.Sqrt2)))
		}
		for i := hiIdx; i < n; i++ {
			out.Samples[i] += amp
		}
	}
	return out
}

// reflectTolerance is the largest per-sample difference allowed between
// ReflectInto and reflectReference. The prefix-sum restructure is exact; the
// difference is the tabulated erf edge (≤ 1.7e-13 per edge, see erfTable)
// summed over the few edges whose windows overlap one sample.
const reflectTolerance = 1e-12

// TestReflectIntoMatchesReference proves ReflectInto — prefix-sum tail and
// tabulated erf edge — stays within reflectTolerance of the original
// math.Erf superposition across temperatures, strains, probe shapes, and
// perturbed profiles.
func TestReflectIntoMatchesReference(t *testing.T) {
	l := New("prefix-test", DefaultConfig(), rng.New(7).Child("line"))
	l.ApplyPerturbation("probe-a", Perturbation{Position: 0.08, Extent: 0.02, DeltaZ: 4.2})
	l.ApplyPerturbation("probe-b", Perturbation{Position: 0.19, Extent: 0.005, DeltaZ: -9.1})

	probes := []Probe{
		DefaultProbe(),
		{RiseTime: 120e-12, Amplitude: 0.9, SecondOrder: false},
		{RiseTime: 480e-12, Amplitude: 0.4, SecondOrder: true},
	}
	conds := []struct{ deltaT, stretch float64 }{
		{0, 1}, {12.5, 1}, {-8, 1.0003}, {35, 0.9991}, {3.3, 1.2},
	}
	var scratch ReflectScratch
	for pi, p := range probes {
		for ci, c := range conds {
			want := reflectReference(l, p, c.deltaT, c.stretch, 89.6e9, 343)
			got := l.ReflectInto(&scratch, p, c.deltaT, c.stretch, 89.6e9, 343)
			if got.Len() != want.Len() {
				t.Fatalf("probe %d cond %d: length %d != %d", pi, ci, got.Len(), want.Len())
			}
			for i := range want.Samples {
				if d := math.Abs(got.Samples[i] - want.Samples[i]); !(d <= reflectTolerance) {
					t.Fatalf("probe %d cond %d: sample %d differs by %g: got %v want %v",
						pi, ci, i, d, got.Samples[i], want.Samples[i])
				}
			}
		}
	}
}

// TestReflectIntoNegativeStretch: under a negative stretch every arrival
// falls before t = 0, which sends ReflectInto down the non-monotone
// fallback with window ends below zero. Each such arrival must contribute
// its full step to every sample — no panic, and the late samples carry the
// sum of all event amplitudes.
func TestReflectIntoNegativeStretch(t *testing.T) {
	l := New("negative-stretch", DefaultConfig(), rng.New(7).Child("line"))
	p := DefaultProbe()
	const rate, n = 1 / 11.16e-12, 343
	var s ReflectScratch
	w := l.ReflectInto(&s, p, 0, -0.5, rate, n)
	if len(w.Samples) != n {
		t.Fatalf("len = %d, want %d", len(w.Samples), n)
	}
	for i, v := range w.Samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d = %v", i, v)
		}
	}
	total := 0.0
	for _, ev := range s.events {
		total += p.Amplitude * ev.a
	}
	if got := w.Samples[n-1]; math.Abs(got-total) > 1e-12 {
		t.Errorf("last sample %v, want the full-step sum %v", got, total)
	}
	// The allocating entry point takes the same path.
	l.Reflect(p, 0, -0.5, rate, n)
}
