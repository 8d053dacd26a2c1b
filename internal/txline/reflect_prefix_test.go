package txline

import (
	"math"
	"sync"
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
// math.Erf superposition across temperatures, strains, probe shapes,
// perturbed profiles and sample grids: the ETS-equivalent 89.6 GHz, the
// ADC-TDR's 40 GHz and the VNA's 200 GHz (internal/baseline), and a coarse
// 10 GHz grid whose window edges reach past erfTableMax, so the kernel's
// math.Erf fallback is held to the same bound. Negative strains reverse the
// arrival order and send ReflectInto down its non-monotone fallback.
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
		{0, -0.01}, {-8, -0.03},
	}
	rates := []float64{89.6e9, 40e9, 200e9, 10e9}
	var scratch ReflectScratch
	worst := 0.0
	for _, rate := range rates {
		// Long enough for the second-order echo at twice the round trip.
		n := int(2.2 * l.RoundTripTime() * rate)
		for pi, p := range probes {
			for ci, c := range conds {
				want := reflectReference(l, p, c.deltaT, c.stretch, rate, n)
				got := l.ReflectInto(&scratch, p, c.deltaT, c.stretch, rate, n)
				if got.Len() != want.Len() {
					t.Fatalf("%g Hz probe %d cond %d: length %d != %d", rate, pi, ci, got.Len(), want.Len())
				}
				for i := range want.Samples {
					d := math.Abs(got.Samples[i] - want.Samples[i])
					if !(d <= reflectTolerance) {
						t.Fatalf("%g Hz probe %d cond %d: sample %d differs by %g: got %v want %v",
							rate, pi, ci, i, d, got.Samples[i], want.Samples[i])
					}
					worst = max(worst, d)
				}
			}
		}
	}
	t.Logf("max |ReflectInto − reference| = %.3g", worst)

	// The coarse grid must really reach the fallback: the first sample of
	// some default-probe window lies at or beyond −erfTableMax.
	k := newEdgeKernel(DefaultProbe().RiseTime/2.563, 10e9)
	var scratch10 ReflectScratch
	l.ReflectInto(&scratch10, DefaultProbe(), 0, 1, 10e9, int(2.2*l.RoundTripTime()*10e9))
	reached := false
	for _, ev := range scratch10.events {
		lo := max(int((ev.t-k.window)*k.rate), 0)
		if (float64(lo)*k.dt-ev.t)*k.inv <= -erfTableMax {
			reached = true
			break
		}
	}
	if !reached {
		t.Error("no 10 GHz window reaches |x| ≥ erfTableMax; the math.Erf fallback is untested")
	}
}

// TestReflectIntoAllocatesNothingWarm: on a warm scratch, ReflectInto
// allocates nothing — the shared attenuation table and the edge kernel add
// no per-call allocation.
func TestReflectIntoAllocatesNothingWarm(t *testing.T) {
	l := New("allocs", DefaultConfig(), rng.New(8).Child("line"))
	p := DefaultProbe()
	var s ReflectScratch
	l.ReflectInto(&s, p, 0, 1, 89.6e9, 343)
	if allocs := testing.AllocsPerRun(20, func() {
		l.ReflectInto(&s, p, 2.5, 1.0004, 89.6e9, 343)
	}); allocs != 0 {
		t.Errorf("ReflectInto on a warm scratch: %v allocs/op, want 0", allocs)
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

// TestReflectIntoConcurrentGeometries: goroutines that synthesize lines of
// not-yet-seen geometries at once build and share the attenuation tables
// without a race, and each gets the waveform a later sequential call gives.
func TestReflectIntoConcurrentGeometries(t *testing.T) {
	const workers = 4
	var lines []*Line
	for i := range 3 {
		cfg := DefaultConfig()
		cfg.LossDBPerMeter = 1.1 + 0.1*float64(i)
		lines = append(lines, New("concurrent", cfg, rng.New(uint64(40+i))))
	}
	got := make([][]*signal.Waveform, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range lines {
				l := lines[(w+j)%len(lines)]
				got[w] = append(got[w], l.Reflect(DefaultProbe(), 0, 1, 89.6e9, 343))
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for j, g := range got[w] {
			want := lines[(w+j)%len(lines)].Reflect(DefaultProbe(), 0, 1, 89.6e9, 343)
			for i := range want.Samples {
				if g.Samples[i] != want.Samples[i] {
					t.Fatalf("worker %d line %d sample %d: %v, sequential %v", w, j, i, g.Samples[i], want.Samples[i])
				}
			}
		}
	}
}
