package txline

import (
	"math"
	"sync"

	"divot/internal/signal"
)

// Probe describes the edge waveform used to interrogate the line.
type Probe struct {
	// RiseTime is the 10-90 % rise time of the launched edge in seconds.
	RiseTime float64
	// Amplitude is the edge swing in volts.
	Amplitude float64
	// SecondOrder enables the dominant multi-bounce echo term
	// (termination → source → termination).
	SecondOrder bool
}

// DefaultProbe returns a probe matching a 156.25 MHz FPGA I/O edge.
func DefaultProbe() Probe {
	return Probe{RiseTime: 120e-12, Amplitude: 0.9, SecondOrder: true}
}

// Reflect synthesizes the back-reflection waveform received at the source for
// the line's current state. deltaT is the temperature offset from the 23 °C
// calibration point, stretch is the mechanical time-axis factor (1 = none),
// and the output is sampled at rate over n samples starting at t = 0 (edge
// launch).
//
// The result is the superposition over every impedance boundary of the
// incident edge scaled by the boundary's reflection coefficient, delayed by
// its round-trip time (under stretch) and attenuated by the line loss.
func (l *Line) Reflect(p Probe, deltaT, stretch float64, rate float64, n int) *signal.Waveform {
	return l.ReflectInto(nil, p, deltaT, stretch, rate, n)
}

// reflectEvent is one arrival in the reflection superposition: round-trip
// time t (unstretched) and amplitude a relative to the incident edge.
type reflectEvent struct{ t, a float64 }

// ReflectScratch holds the reusable buffers of ReflectInto: the effective
// impedance profile, the event list, and the output waveform. The zero value
// is ready to use; one scratch serves one goroutine.
type ReflectScratch struct {
	z      []float64
	events []reflectEvent
	hi     []int
	out    *signal.Waveform
}

// ReflectInto is Reflect with every buffer recycled from s (nil s behaves
// like Reflect). The returned waveform aliases s.out and is valid until the
// next ReflectInto on the same scratch; numerics are bit-identical to
// Reflect.
func (l *Line) ReflectInto(s *ReflectScratch, p Probe, deltaT, stretch float64, rate float64, n int) *signal.Waveform {
	if s == nil {
		s = &ReflectScratch{}
	}
	// Thermal slowing of the wave stretches all arrival times on top of
	// any mechanical strain.
	stretch *= 1 + l.cfg.ThermalStretchPerC*deltaT
	z, term := l.effectiveProfileInto(s.z[:0], deltaT)
	s.z = z
	segDt := 2 * l.cfg.SegmentLength / l.cfg.Velocity // round trip per segment
	alpha := l.cfg.LossDBPerMeter * math.Ln10 / 20    // nepers per meter, one way
	att := boundaryAttenuation(l.cfg.LossDBPerMeter, l.cfg.SegmentLength, len(z))

	type event = reflectEvent
	events := s.events[:0]
	if cap(events) < len(z)+2 {
		events = make([]event, 0, len(z)+2)
	}
	// Launch interface (source impedance to first segment) is excluded: the
	// iTDR couples after the driver, so this static offset carries no IIP
	// information and is removed during calibration anyway.
	for i := 0; i < len(z)-1; i++ {
		g := (z[i+1] - z[i]) / (z[i+1] + z[i])
		if g == 0 {
			continue
		}
		events = append(events, event{t: float64(i+1) * segDt, a: g * att[i]})
	}
	// Termination reflection.
	zLast := z[len(z)-1]
	gTerm := (term - zLast) / (term + zLast)
	attTerm := math.Exp(-2 * alpha * l.cfg.Length)
	tTerm := l.RoundTripTime()
	events = append(events, event{t: tTerm, a: gTerm * attTerm})
	if p.SecondOrder {
		// Echo: wave reflects off termination, travels back, re-reflects
		// off the source impedance, and bounces off the termination again.
		gSrc := (l.cfg.SourceZ - z[0]) / (l.cfg.SourceZ + z[0])
		echo := gTerm * gSrc * gTerm * math.Exp(-4*alpha*l.cfg.Length)
		events = append(events, event{t: 2 * tTerm, a: echo})
	}
	s.events = events

	s.out = signal.Reuse(s.out, rate, n)
	out := s.out
	// Each reflection is the incident erf edge delayed to the event time,
	// evaluated only within ±5σ of its transition and held at 0/full step
	// outside — exact to 3e-7, and it keeps the per-event work to the few
	// dozen samples of the transition instead of all n.
	edge := newEdgeKernel(p.RiseTime/2.563, rate)

	// Post-window samples see the full step of every earlier event, so the
	// naive superposition re-adds each event's amplitude over an O(n) tail —
	// ~100k additions per synthesis at the default geometry. Events are
	// emitted in arrival order, which makes the window-end indexes
	// monotonically non-decreasing; when they are, each sample's tail sum is
	// a prefix sum over the event amplitudes and can be written once by
	// assignment into the zeroed buffer. The running prefix uses the same
	// left-to-right fold the tail loops performed, so the restructure adds
	// no rounding of its own: the waveform stays within 1e-12 of the
	// math.Erf reference superposition (TestReflectIntoMatchesReference).
	if cap(s.hi) < len(events) {
		s.hi = make([]int, len(events))
	}
	his := s.hi[:len(events)]
	mono := len(events) > 0
	prev := 0
	for e, ev := range events {
		hi := edge.hiIndex(ev.t*stretch, n)
		his[e] = hi
		if hi < prev {
			mono = false
		}
		prev = hi
	}
	if mono && his[0] >= 0 {
		// Pass 1: fill each region [hi_e, hi_{e+1}) with the prefix sum of
		// amplitudes through event e. Assignment, not accumulation — the
		// buffer was zeroed by Reuse and the regions partition [hi_0, n).
		acc := 0.0
		for e, ev := range events {
			acc += p.Amplitude * ev.a
			end := n
			if e+1 < len(events) {
				end = his[e+1]
			}
			for i := his[e]; i < end; i++ {
				out.Samples[i] = acc
			}
		}
		// Pass 2: the windowed erf transitions, added in event order on top
		// of the prefix fill — the same order the combined loop used, since
		// for any sample every tail contribution comes from an earlier event
		// than every window contribution.
		for _, ev := range events {
			edge.add(out.Samples, p.Amplitude*ev.a, ev.t*stretch)
		}
		return out
	}

	// Fallback for non-monotone arrival times (negative stretch or a
	// pathological profile): the original combined superposition.
	for _, ev := range events {
		amp := p.Amplitude * ev.a
		hiIdx := edge.add(out.Samples, amp, ev.t*stretch)
		// Samples after the window see the full step; an arrival before
		// t = 0 (hiIdx < 0) contributes it everywhere.
		for i := max(hiIdx, 0); i < n; i++ {
			out.Samples[i] += amp
		}
	}
	return out
}

// edgeKernel adds windowed erf transitions of one probe to a waveform on one
// sample grid. Everything that depends only on the probe and the grid — the
// sample period and 1/(σ√2) — is computed once per synthesis, so the
// per-sample work is a multiply-add for the argument, one erfTable
// polynomial and a multiply-add into the output: no division. The argument
// and the table (≤ 1.7e-13 from math.Erf) differ from the reference
// superposition only in the last bits; TestReflectIntoMatchesReference holds
// the waveform to 1e-12, and the IIP pins decide whether a capture moved.
type edgeKernel struct {
	rate   float64 // samples per second
	dt     float64 // 1/rate
	inv    float64 // 1/(σ√2): seconds → erf argument
	window float64 // ±5σ half-width of the evaluated transition
}

func newEdgeKernel(sigma, rate float64) edgeKernel {
	return edgeKernel{rate: rate, dt: 1 / rate, inv: 1 / (sigma * math.Sqrt2), window: 5 * sigma}
}

// hiIndex is the end index of the window of an arrival at tEv seconds,
// clamped above to n but not below, so an arrival before t = 0 gives a
// negative index.
func (k edgeKernel) hiIndex(tEv float64, n int) int {
	return min(int((tEv+k.window)*k.rate)+1, n)
}

// add adds one arrival's windowed erf transition to out: amplitude amp,
// centred at tEv seconds, over the samples within ±window of it. It returns
// hiIndex(tEv, len(out)).
func (k edgeKernel) add(out []float64, amp, tEv float64) int {
	lo := max(int((tEv-k.window)*k.rate), 0)
	hi := k.hiIndex(tEv, len(out))
	if lo >= hi {
		return hi
	}
	half := 0.5 * amp
	w := out[lo:hi]
	t0 := float64(lo)
	for j := range w {
		x := ((t0+float64(j))*k.dt - tEv) * k.inv
		var e float64
		switch {
		case 0 < x && x < erfTableMax:
			e = erfPoly(x)
		case -erfTableMax < x && x < 0:
			e = -erfPoly(-x)
		default: // ±0, the far tails, and non-finite arguments
			e = math.Erf(x)
		}
		w[j] += half + half*e
	}
	return hi
}

// boundaryAttenuation returns the round-trip loss factor e^(−2αd) of every
// interior segment boundary (d = (i+1)·segLen) of a line with the given loss
// and discretization. The factors depend on nothing but these three values,
// so every line of a geometry shares one table, built once per process.
func boundaryAttenuation(lossDBPerMeter, segLen float64, segments int) []float64 {
	key := attenKey{lossDBPerMeter, segLen, segments}
	if v, ok := attenCache.Load(key); ok {
		return v.([]float64)
	}
	alpha := lossDBPerMeter * math.Ln10 / 20
	att := make([]float64, max(segments-1, 0))
	for i := range att {
		d := float64(i+1) * segLen
		att[i] = math.Exp(-2 * alpha * d)
	}
	v, _ := attenCache.LoadOrStore(key, att)
	return v.([]float64)
}

type attenKey struct {
	lossDBPerMeter, segLen float64
	segments               int
}

// attenCache holds boundaryAttenuation's tables. It grows by one entry per
// distinct line geometry the process builds.
var attenCache sync.Map // attenKey → []float64
