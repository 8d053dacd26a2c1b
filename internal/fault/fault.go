// Package fault is a deterministic fault-injection layer for the DIVOT
// instrument stack. A Plane wraps one iTDR with a set of injectable faults —
// comparator stuck-at and offset steps, counter bit flips, PLL phase steps
// and jitter bursts, dead ETS bins, reference-noise sigma drift, and
// transient environmental glitches (temperature steps, EMI bursts) — each
// governed by a schedule: one-shot at a measurement, intermittent with a
// duty cycle, or permanent from a measurement onward.
//
// Everything a plane does is seeded from the same rng.Stream universe as the
// rest of the simulation: whether an intermittent fault is active at
// measurement seq, which bins a dead-bin field kills, and which counters an
// upset flips all derive from labelled child streams of the plane's own
// stream, keyed by fault index, bin index, and measurement sequence number —
// never by execution order. Fault injection is therefore bit-reproducible
// from the system seed at any Parallelism, and two runs that differ only in
// worker count observe identical faults.
//
// Schedules are written against the instrument's measurement sequence number
// (1-based, counting enrollment measurements; see itdr.Reflectometer.Seq and
// core.Config.CalibrationMeasurements for converting monitoring round
// numbers to sequence numbers).
package fault

import (
	"fmt"
	"math"
	"strings"

	"divot/internal/itdr"
	"divot/internal/rng"
	"divot/internal/telemetry"
)

// Kind enumerates the injectable fault mechanisms.
type Kind int

const (
	// CompStuckHigh forces every comparator decision to 1.
	CompStuckHigh Kind = iota
	// CompStuckLow forces every comparator decision to 0.
	CompStuckLow
	// CompOffsetStep adds Magnitude volts of uncalibrated comparator input
	// offset (plus Rate volts per measurement since onset — aging drift).
	CompOffsetStep
	// CounterFlip XORs bit FlipBit into each bin's ones-count with
	// probability BinProb per bin (1 when zero) — single-event upsets.
	CounterFlip
	// PhaseStep shifts every ETS sampling instant by Magnitude seconds — a
	// PLL phase-step error.
	PhaseStep
	// JitterStep adds Magnitude seconds RMS (plus Rate per measurement) of
	// extra PLL jitter, in quadrature with the instrument's own.
	JitterStep
	// DeadBins kills a fixed set of ETS acquisition slices: either the
	// explicit Bins list or a random BinFraction of all bins (drawn once,
	// deterministically, from the plane's stream).
	DeadBins
	// SigmaDrift scales the comparator noise sigma by 1+Magnitude
	// (+Rate per measurement since onset) without the inverse map knowing.
	SigmaDrift
	// TempStep raises the environmental temperature excursion by Magnitude
	// °C for the faulted measurements — a thermal transient.
	TempStep
	// EMIBurst injects Magnitude volts of asynchronous EMI at the detector
	// for the faulted measurements.
	EMIBurst
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CompStuckHigh:
		return "comparator-stuck-high"
	case CompStuckLow:
		return "comparator-stuck-low"
	case CompOffsetStep:
		return "comparator-offset-step"
	case CounterFlip:
		return "counter-bit-flip"
	case PhaseStep:
		return "pll-phase-step"
	case JitterStep:
		return "pll-jitter-step"
	case DeadBins:
		return "dead-ets-bins"
	case SigmaDrift:
		return "noise-sigma-drift"
	case TempStep:
		return "temperature-step"
	case EMIBurst:
		return "emi-burst"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Mode is the temporal pattern of a schedule.
type Mode int

const (
	// Permanent: active from measurement Start onward. The zero value, so
	// Schedule{} means "always on".
	Permanent Mode = iota
	// OneShot: active for exactly the measurement numbered Start.
	OneShot
	// Intermittent: from Start onward, active on each measurement
	// independently with probability Duty.
	Intermittent
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Permanent:
		return "permanent"
	case OneShot:
		return "one-shot"
	case Intermittent:
		return "intermittent"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Schedule says when a fault is active, in instrument measurement sequence
// numbers (1-based; enrollment measurements count).
type Schedule struct {
	Mode  Mode
	Start uint64
	// Duty is the per-measurement activation probability for Intermittent.
	Duty float64
}

// Once schedules a fault for exactly measurement seq.
func Once(seq uint64) Schedule { return Schedule{Mode: OneShot, Start: seq} }

// From schedules a fault permanently from measurement seq onward.
func From(seq uint64) Schedule { return Schedule{Mode: Permanent, Start: seq} }

// Duty schedules a fault intermittently from measurement seq onward, active
// with the given per-measurement probability.
func Duty(seq uint64, duty float64) Schedule {
	return Schedule{Mode: Intermittent, Start: seq, Duty: duty}
}

// active decides whether the schedule fires at measurement seq, drawing the
// intermittent coin from the fault's own stream keyed by seq (not by how many
// times this has been asked), so the answer is a pure function of identity.
func (s Schedule) active(stream *rng.Stream, seq uint64) bool {
	if seq < s.Start {
		return false
	}
	switch s.Mode {
	case OneShot:
		return seq == s.Start
	case Intermittent:
		return stream.ChildN("duty", seq).Bool(s.Duty)
	}
	return true // Permanent
}

// Fault is one injectable fault. Which parameters matter depends on Kind;
// the rest are ignored.
type Fault struct {
	Kind     Kind
	Schedule Schedule
	// Magnitude is the kind-specific strength: volts (CompOffsetStep,
	// EMIBurst), relative sigma increase (SigmaDrift), seconds (PhaseStep,
	// JitterStep), °C (TempStep).
	Magnitude float64
	// Rate grows Magnitude by this much per measurement since onset —
	// drift-style faults.
	Rate float64
	// FlipBit is the counter bit a CounterFlip upsets.
	FlipBit uint
	// BinProb is the per-bin upset probability for CounterFlip (0 means 1).
	BinProb float64
	// Bins is the explicit dead-bin list for DeadBins.
	Bins []int
	// BinFraction kills a random fraction of all bins for DeadBins when
	// Bins is empty.
	BinFraction float64
}

// Helper constructors, one per mechanism, for readable experiment code.

// StuckComparator sticks every decision at a rail (high or low).
func StuckComparator(high bool, sch Schedule) Fault {
	k := CompStuckLow
	if high {
		k = CompStuckHigh
	}
	return Fault{Kind: k, Schedule: sch}
}

// OffsetStep adds step volts of uncalibrated comparator offset, drifting by
// ratePerMeasurement volts each measurement after onset.
func OffsetStep(step, ratePerMeasurement float64, sch Schedule) Fault {
	return Fault{Kind: CompOffsetStep, Schedule: sch, Magnitude: step, Rate: ratePerMeasurement}
}

// NoiseDrift scales the comparator sigma by 1+step, growing by
// ratePerMeasurement each measurement after onset.
func NoiseDrift(step, ratePerMeasurement float64, sch Schedule) Fault {
	return Fault{Kind: SigmaDrift, Schedule: sch, Magnitude: step, Rate: ratePerMeasurement}
}

// PhaseGlitch shifts all sampling instants by shift seconds.
func PhaseGlitch(shift float64, sch Schedule) Fault {
	return Fault{Kind: PhaseStep, Schedule: sch, Magnitude: shift}
}

// PhaseDrift ages the PLL timebase: every sampling instant slides by
// ratePerMeasurement seconds for each measurement since the fault's onset —
// the slow global decay that guarded re-enrollment absorbs.
func PhaseDrift(ratePerMeasurement float64, sch Schedule) Fault {
	return Fault{Kind: PhaseStep, Schedule: sch, Rate: ratePerMeasurement}
}

// JitterBurst adds rms seconds of extra PLL jitter.
func JitterBurst(rms float64, sch Schedule) Fault {
	return Fault{Kind: JitterStep, Schedule: sch, Magnitude: rms}
}

// DeadBinField kills a random fraction of all ETS bins.
func DeadBinField(fraction float64, sch Schedule) Fault {
	return Fault{Kind: DeadBins, Schedule: sch, BinFraction: fraction}
}

// DeadBinList kills exactly the listed ETS bins.
func DeadBinList(bins []int, sch Schedule) Fault {
	return Fault{Kind: DeadBins, Schedule: sch, Bins: bins}
}

// CounterUpset flips counter bit `bit` in each bin with probability prob.
func CounterUpset(bit uint, prob float64, sch Schedule) Fault {
	return Fault{Kind: CounterFlip, Schedule: sch, FlipBit: bit, BinProb: prob}
}

// TempGlitch raises the measurement temperature by deltaC °C.
func TempGlitch(deltaC float64, sch Schedule) Fault {
	return Fault{Kind: TempStep, Schedule: sch, Magnitude: deltaC}
}

// EMIGlitch injects amplitude volts of asynchronous EMI.
func EMIGlitch(amplitude float64, sch Schedule) Fault {
	return Fault{Kind: EMIBurst, Schedule: sch, Magnitude: amplitude}
}

// Plane is a set of faults attached to one instrument. It implements
// itdr.Injector. A plane must not be shared between instruments that measure
// concurrently (each endpoint gets its own plane).
type Plane struct {
	faults  []Fault
	streams []*rng.Stream
	// dead caches the resolved dead-bin set per DeadBins fault, so the
	// random field is drawn from bin identity once and forever.
	dead []map[int]bool
	// Activations counts measurements on which at least one fault was
	// active — a convenience for tests and experiments.
	Activations int

	// sink, when non-nil, receives one EventFault per faulted measurement,
	// naming the active fault kinds. Wired by the owning instrument (see
	// itdr.Reflectometer.SetInjector) or directly via WireSink.
	sink       telemetry.Sink
	link, side string
}

// WireSink implements telemetry.Wirable: the plane emits fault-injection
// events to s, labelled with the given link id and side.
func (p *Plane) WireSink(s telemetry.Sink, link, side string) {
	p.sink, p.link, p.side = s, link, side
}

// NewPlane builds a fault plane drawing all of its randomness from labelled
// children of the given stream.
func NewPlane(stream *rng.Stream, faults ...Fault) *Plane {
	p := &Plane{
		faults:  faults,
		streams: make([]*rng.Stream, len(faults)),
		dead:    make([]map[int]bool, len(faults)),
	}
	for i := range faults {
		p.streams[i] = stream.ChildN("fault", uint64(i))
	}
	return p
}

// deadSet resolves fault i's dead-bin membership function.
func (p *Plane) deadSet(i int) func(m int) bool {
	f := p.faults[i]
	if len(f.Bins) > 0 {
		if p.dead[i] == nil {
			set := make(map[int]bool, len(f.Bins))
			for _, b := range f.Bins {
				set[b] = true
			}
			p.dead[i] = set
		}
		set := p.dead[i]
		return func(m int) bool { return set[m] }
	}
	// Random field: membership is a pure hash of (fault stream, bin), so no
	// precomputation and no knowledge of the bin count is needed.
	frac := f.BinFraction
	st := p.streams[i]
	return func(m int) bool { return st.ChildN("dead", uint64(m)).Bool(frac) }
}

// BeginMeasurement implements itdr.Injector: it folds every fault active at
// measurement seq into one MeasurementFault.
func (p *Plane) BeginMeasurement(seq uint64) (itdr.MeasurementFault, bool) {
	var mf itdr.MeasurementFault
	var binFaults []int
	var activeKinds []string
	var tempDelta, emiAmp float64
	jitterSq := 0.0
	sigmaScale := 1.0
	active := 0
	for i, f := range p.faults {
		if !f.Schedule.active(p.streams[i], seq) {
			continue
		}
		active++
		if p.sink != nil {
			activeKinds = append(activeKinds, f.Kind.String())
		}
		age := float64(seq - f.Schedule.Start)
		switch f.Kind {
		case CompStuckHigh:
			mf.Stuck = itdr.StuckHigh
		case CompStuckLow:
			mf.Stuck = itdr.StuckLow
		case CompOffsetStep:
			mf.ExtraOffset += f.Magnitude + f.Rate*age
		case SigmaDrift:
			sigmaScale *= 1 + f.Magnitude + f.Rate*age
		case JitterStep:
			j := f.Magnitude + f.Rate*age
			jitterSq += j * j
		case PhaseStep:
			mf.PhaseOffset += f.Magnitude + f.Rate*age
		case TempStep:
			tempDelta += f.Magnitude + f.Rate*age
		case EMIBurst:
			emiAmp += f.Magnitude
		case DeadBins, CounterFlip:
			binFaults = append(binFaults, i)
		}
	}
	if active == 0 {
		return itdr.MeasurementFault{}, false
	}
	p.Activations++
	if p.sink != nil {
		p.sink.Emit(telemetry.Event{
			Kind: telemetry.EventFault,
			Link: p.link, Side: p.side,
			Round:  seq,
			Detail: strings.Join(activeKinds, "+"),
		})
	}
	if sigmaScale != 1 {
		mf.NoiseScale = sigmaScale
	}
	if jitterSq > 0 {
		mf.ExtraJitterRMS = math.Sqrt(jitterSq)
	}
	if tempDelta != 0 || emiAmp != 0 {
		mf.Condition = func(c itdr.ConditionTransform) itdr.ConditionTransform {
			c.DeltaT += tempDelta
			c.EMIAmplitude += emiAmp
			return c
		}
	}
	if len(binFaults) > 0 {
		mf.Bin = p.binFault(binFaults, seq)
	}
	return mf, true
}

// binFault builds the per-bin fault closure for the given active fault
// indices at measurement seq. All randomness inside is keyed by (fault, bin,
// seq) identity, so the closure is a pure function of m.
func (p *Plane) binFault(idx []int, seq uint64) func(m int) itdr.BinFault {
	type binSrc struct {
		kind Kind
		dead func(m int) bool
		st   *rng.Stream
		prob float64
		xor  uint32
	}
	srcs := make([]binSrc, 0, len(idx))
	for _, i := range idx {
		f := p.faults[i]
		s := binSrc{kind: f.Kind, st: p.streams[i]}
		switch f.Kind {
		case DeadBins:
			s.dead = p.deadSet(i)
		case CounterFlip:
			s.prob = f.BinProb
			if s.prob == 0 {
				s.prob = 1
			}
			s.xor = 1 << f.FlipBit
		}
		srcs = append(srcs, s)
	}
	return func(m int) itdr.BinFault {
		var bf itdr.BinFault
		for _, s := range srcs {
			switch s.kind {
			case DeadBins:
				if s.dead(m) {
					bf.Dead = true
				}
			case CounterFlip:
				if s.st.Child("flip").ChildN("seq", seq).ChildN("bin", uint64(m)).Bool(s.prob) {
					bf.CounterXOR ^= s.xor
				}
			}
		}
		return bf
	}
}
