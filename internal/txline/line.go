// Package txline models PCB transmission lines at the level of detail the
// DIVOT architecture cares about: a per-segment characteristic-impedance
// profile (the Impedance Inhomogeneity Pattern, IIP), the back-reflection
// waveform that profile produces for a probing edge, environmental influences
// (temperature, vibration, EMI), and the perturbations physical attacks
// introduce.
//
// The model is first-order time-domain reflectometry: each boundary between
// segments of impedance Z_i and Z_{i+1} reflects a fraction
// Γ_i = (Z_{i+1}-Z_i)/(Z_{i+1}+Z_i) of the incident wave back to the source,
// delayed by the round-trip time to that boundary and attenuated by line
// loss. Summing the per-boundary step reflections makes the received
// waveform track the impedance profile over distance, which is exactly the
// property the paper's iTDR exploits (§II). An optional second-order term
// models the dominant multi-bounce echo (termination → source → termination).
package txline

import (
	"fmt"
	"math"

	"divot/internal/rng"
)

// Config describes the construction parameters of a transmission line.
type Config struct {
	// Length is the physical line length in meters (paper prototype: 0.25).
	Length float64
	// SegmentLength is the spatial discretization in meters. Sub-millimeter
	// segments match the iTDR's 0.837 mm spatial resolution.
	SegmentLength float64
	// Z0 is the nominal characteristic impedance in ohms (50).
	Z0 float64
	// ContrastRMS is the RMS relative impedance deviation of the intrinsic
	// inhomogeneity, e.g. 0.01 for 1 % manufacturing variation.
	ContrastRMS float64
	// CorrelationLength is the spatial correlation of the inhomogeneity in
	// meters; impedance wanders smoothly rather than jumping per segment.
	CorrelationLength float64
	// Velocity is the propagation velocity in m/s (paper: 15 cm/ns).
	Velocity float64
	// LossDBPerMeter is the one-way attenuation at the probing edge's
	// bandwidth.
	LossDBPerMeter float64
	// SourceZ is the driver output impedance in ohms.
	SourceZ float64
	// TerminationZ is the nominal receiver/termination impedance in ohms.
	TerminationZ float64
	// TerminationSpreadRMS is the chip-to-chip RMS spread of the input
	// impedance around TerminationZ. The paper's load-modification
	// experiment replaces the receiver with the *same model* chip and still
	// observes an IIP change at the load — same-model chips differ.
	TerminationSpreadRMS float64
	// TempCoeffCommon is the relative impedance change per °C that all
	// segments share (dielectric-constant rise lowers impedance, so this is
	// negative).
	TempCoeffCommon float64
	// TempCoeffDiffRMS is the RMS of the per-segment differential relative
	// impedance change per °C — the small part of thermal drift that does
	// not cancel in the IIP contrast.
	TempCoeffDiffRMS float64
	// ThermalStretchPerC is the relative propagation-delay increase per °C:
	// heating raises the laminate's dielectric constant, slowing the wave
	// and stretching every reflection's arrival time. This is the dominant
	// mechanism behind the genuine-distribution shift of Fig. 8.
	ThermalStretchPerC float64
}

// DefaultConfig returns the configuration matching the paper's prototype:
// a 25 cm, 50 Ω PCB trace probed at 156.25 MHz.
func DefaultConfig() Config {
	return Config{
		Length:               0.25,
		SegmentLength:        0.5e-3,
		Z0:                   50,
		ContrastRMS:          0.010,
		CorrelationLength:    5e-3,
		Velocity:             1.5e8,
		LossDBPerMeter:       0.8,
		SourceZ:              47,
		TerminationZ:         50.5,
		TerminationSpreadRMS: 1.0,
		TempCoeffCommon:      -2.0e-4,
		TempCoeffDiffRMS:     6.0e-6,
		ThermalStretchPerC:   4.7e-4,
	}
}

// PerturbKind classifies the physical nature of a local modification. The
// iTDR sees them all as impedance changes, but the baseline detectors of
// §V each respond to only one physical quantity — a capacitance-sensing
// ring oscillator cannot see an inductive probe, and a DC-resistance monitor
// cannot see either.
type PerturbKind int

const (
	// KindGeneric is an unclassified impedance change.
	KindGeneric PerturbKind = iota
	// KindCapacitive adds shunt capacitance (wire stubs, contact probes),
	// lowering the local impedance.
	KindCapacitive
	// KindInductive adds series inductance (magnetic near-field probes),
	// raising the local impedance.
	KindInductive
	// KindResistive changes the trace's series resistance (milling,
	// thinning, rerouting the copper).
	KindResistive
)

// Perturbation is a named local impedance modification applied to a line,
// used by attack models (wire taps, probes) and removable by name.
type Perturbation struct {
	// Position is the distance from the source in meters.
	Position float64
	// Extent is the affected length in meters.
	Extent float64
	// DeltaZ is the absolute impedance change in ohms over the extent.
	DeltaZ float64
	// Kind classifies the physical mechanism (for baseline sensors).
	Kind PerturbKind
}

// Line is one transmission line with its intrinsic impedance profile.
// A Line is not safe for concurrent mutation.
type Line struct {
	cfg     Config
	id      string
	baseZ   []float64 // intrinsic per-segment impedance at 23 °C
	diffTC  []float64 // per-segment differential temperature coefficients
	termZ   float64   // current termination impedance
	perturb map[string]Perturbation
}

// New builds a line with a fresh intrinsic impedance profile drawn from the
// given random stream. Lines built from identically seeded streams are
// identical; different seeds give statistically independent IIPs — the PUF
// property.
func New(id string, cfg Config, stream *rng.Stream) *Line {
	if cfg.Length <= 0 || cfg.SegmentLength <= 0 {
		panic(fmt.Sprintf("txline: invalid geometry %+v", cfg))
	}
	if cfg.Z0 <= 0 || cfg.Velocity <= 0 {
		panic(fmt.Sprintf("txline: invalid electrical parameters %+v", cfg))
	}
	n := int(math.Round(cfg.Length / cfg.SegmentLength))
	if n < 2 {
		n = 2
	}
	profile := stream.Child("iip-" + id)
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = profile.Gaussian(0, 1)
	}
	smooth := smoothProfile(raw, cfg.CorrelationLength/cfg.SegmentLength)
	// Renormalize to the requested RMS contrast.
	var ss float64
	for _, v := range smooth {
		ss += v * v
	}
	rms := math.Sqrt(ss / float64(n))
	scale := 0.0
	if rms > 0 {
		scale = cfg.ContrastRMS / rms
	}
	baseZ := make([]float64, n)
	for i, v := range smooth {
		baseZ[i] = cfg.Z0 * (1 + scale*v)
	}
	diff := make([]float64, n)
	tcStream := stream.Child("tempdiff-" + id)
	for i := range diff {
		diff[i] = tcStream.Gaussian(0, cfg.TempCoeffDiffRMS)
	}
	term := cfg.TerminationZ
	if cfg.TerminationSpreadRMS > 0 {
		term = DrawTermination(cfg, stream.Child("term-"+id))
	}
	return &Line{
		cfg:     cfg,
		id:      id,
		baseZ:   baseZ,
		diffTC:  diff,
		termZ:   term,
		perturb: make(map[string]Perturbation),
	}
}

// DrawTermination samples a chip input impedance for the given configuration:
// the nominal termination plus the chip-to-chip spread. Attack models use it
// to pick the impedance of a replacement (same-model) chip.
func DrawTermination(cfg Config, stream *rng.Stream) float64 {
	z := stream.Gaussian(cfg.TerminationZ, cfg.TerminationSpreadRMS)
	if z < 1 {
		z = 1
	}
	return z
}

// smoothProfile applies a moving-average of width w segments to introduce
// spatial correlation.
func smoothProfile(raw []float64, w float64) []float64 {
	width := int(math.Round(w))
	if width < 1 {
		width = 1
	}
	out := make([]float64, len(raw))
	var acc float64
	for i := range raw {
		acc += raw[i]
		if i >= width {
			acc -= raw[i-width]
		}
		count := width
		if i+1 < width {
			count = i + 1
		}
		out[i] = acc / float64(count)
	}
	return out
}

// ID returns the line's identifier.
func (l *Line) ID() string { return l.id }

// Config returns the construction parameters.
func (l *Line) Config() Config { return l.cfg }

// RoundTripTime returns the total source-to-termination-and-back propagation
// time in seconds.
func (l *Line) RoundTripTime() float64 { return 2 * l.cfg.Length / l.cfg.Velocity }

// SetTermination replaces the termination impedance, as a chip replacement
// (Trojan insertion, cold-boot board swap) would.
func (l *Line) SetTermination(z float64) {
	if z <= 0 {
		panic(fmt.Sprintf("txline: non-positive termination %v", z))
	}
	l.termZ = z
}

// Termination returns the current termination impedance.
func (l *Line) Termination() float64 { return l.termZ }

// ApplyPerturbation adds or replaces a named local impedance modification.
func (l *Line) ApplyPerturbation(name string, p Perturbation) {
	if p.Position < 0 || p.Position > l.cfg.Length {
		panic(fmt.Sprintf("txline: perturbation position %v outside line of length %v",
			p.Position, l.cfg.Length))
	}
	l.perturb[name] = p
}

// RemovePerturbation removes the named modification. Removing an unknown
// name is a no-op, matching the semantics of detaching a probe that was
// never attached.
func (l *Line) RemovePerturbation(name string) { delete(l.perturb, name) }

// Perturbations returns a copy of the active modifications.
func (l *Line) Perturbations() []Perturbation {
	out := make([]Perturbation, 0, len(l.perturb))
	for _, p := range l.perturb {
		out = append(out, p)
	}
	return out
}

// ReplaceTail models cutting the line at pos and attaching a different
// electrical network there (an interposer, an active repeater): every
// segment beyond pos takes the replacement impedance z (a matched network
// presents a flat profile — no inhomogeneity to fingerprint) and the
// termination becomes z as well. The returned function restores the
// original tail and termination exactly — the attacker unplugging their
// device.
func (l *Line) ReplaceTail(pos, z float64) (restore func()) {
	if pos <= 0 || pos >= l.cfg.Length {
		panic(fmt.Sprintf("txline: tail cut at %v outside line of length %v", pos, l.cfg.Length))
	}
	if z <= 0 {
		panic(fmt.Sprintf("txline: non-positive replacement impedance %v", z))
	}
	seg := int(pos / l.cfg.SegmentLength)
	savedZ := append([]float64(nil), l.baseZ[seg:]...)
	savedTerm := l.termZ
	for i := seg; i < len(l.baseZ); i++ {
		l.baseZ[i] = z
	}
	l.termZ = z
	return func() {
		copy(l.baseZ[seg:], savedZ)
		l.termZ = savedTerm
	}
}

// PositionToTime converts a distance from the source into the round-trip
// time at which a reflection from that position arrives back at the source.
func (l *Line) PositionToTime(pos float64) float64 { return 2 * pos / l.cfg.Velocity }

// effectiveProfileInto computes the per-segment impedance under the given
// environment state (common thermal scaling, differential drift, and active
// perturbations) plus the effective termination, appending into a reusable
// scratch slice (pass scratch[:0] to recycle its storage, nil to allocate).
func (l *Line) effectiveProfileInto(scratch []float64, deltaT float64) ([]float64, float64) {
	common := 1 + l.cfg.TempCoeffCommon*deltaT
	z := scratch
	if cap(z) < len(l.baseZ) {
		z = make([]float64, len(l.baseZ))
	} else {
		z = z[:len(l.baseZ)]
	}
	for i, base := range l.baseZ {
		z[i] = base * common * (1 + l.diffTC[i]*deltaT)
	}
	for _, p := range l.perturb {
		lo := int(p.Position / l.cfg.SegmentLength)
		hi := int((p.Position + p.Extent) / l.cfg.SegmentLength)
		if hi <= lo {
			hi = lo + 1
		}
		for i := lo; i < hi && i < len(z); i++ {
			if i >= 0 {
				z[i] += p.DeltaZ
			}
		}
	}
	return z, l.termZ * common
}
