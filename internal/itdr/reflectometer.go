package itdr

import (
	"fmt"
	"math"

	"divot/internal/analog"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/telemetry"
	"divot/internal/txline"
)

// Measurement is the result of one full IIP acquisition.
type Measurement struct {
	// IIP is the reconstructed back-reflection waveform at the line input,
	// sampled at the ETS-equivalent rate (one sample per phase bin). The
	// coupler factor has been divided out, so values are line-referred
	// volts.
	IIP *signal.Waveform
	// Trials is the total number of comparator decisions taken.
	Trials int
	// CyclesUsed is the number of sample-clock cycles consumed, including
	// data cycles that offered no usable launch edge.
	CyclesUsed int
	// Duration is CyclesUsed divided by the sample clock — the wall-clock
	// measurement time.
	Duration float64
	// Saturated flags, per ETS bin, a ones-count pegged at either rail
	// (0 or TrialsPerBin). A pegged count carries no analog information —
	// the inverse map clamps it to the edge of the reference sweep — so a
	// bin that saturates persistently is dead or stuck, and the protocol
	// layer uses this to mask degraded bins out of matching.
	Saturated []bool
}

// Reflectometer is one iTDR instance attached to a line. It owns the
// comparator (whose noise stream is part of the instrument's identity) and
// the PDM modulator, which in a real chip is shared among all iTDRs.
type Reflectometer struct {
	cfg   Config
	comp  *analog.Comparator
	mod   analog.Modulator
	apc   APC
	probe txline.Probe
	envRN *rng.Stream
	seq   uint64 // measurement counter, for per-measurement sub-streams
	inj   Injector

	// sink, when non-nil, receives one telemetry event per completed
	// measurement; link/side label the instrument in those events. See
	// SetSink.
	sink       telemetry.Sink
	link, side string

	// fwd caches the forward incident edge fed to the coupler's directivity
	// term: it depends only on static configuration (rate, bins, probe), so
	// it is synthesized once and reused by every measurement.
	fwd *signal.Waveform

	// binInv caches one inverse APC map per ETS phase bin across
	// measurements of an instrument without a warmup. A bin whose reference
	// sequence repeats (an explicit modulator under clock triggering) has
	// its inverter promoted to a tabulated CDF on the second measurement, so
	// reconstruction stops paying for erfc entirely.
	binInv []*Inverter
	// binInvStore backs binInv with a single flat allocation so building the
	// per-bin cache costs one slice instead of one heap Inverter per bin.
	binInvStore []Inverter

	// wu, when non-nil, is the fleet-shared warm-up for this (Config, Probe)
	// pair: forward edge, per-bin reference schedules, inverse-map cores and
	// reconstruction tables (see warmup). Only clock-triggered instruments
	// using the config's own modulator have one — exactly the case where the
	// acquisition schedule is a pure function of configuration. Such an
	// instrument keeps no per-bin inverters: its first capture bisects
	// through the warmup's memo, and every later one reads the warmup's
	// tables (warmed records which).
	wu     *warmup
	warmed bool
}

// New builds a reflectometer. The stream seeds both the comparator noise and
// per-measurement environment sampling; modulator may be nil to use the
// config's RC quasi-triangle.
func New(cfg Config, probe txline.Probe, mod analog.Modulator, stream *rng.Stream) (*Reflectometer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A non-coprime modulation ratio is permitted — the Vernier sweep
	// degrades and the dynamic range collapses, which the coprime ablation
	// demonstrates — so it is not a validation error.
	var wu *warmup
	if mod == nil {
		mod = analog.NewTriangleModulator(cfg.ModFrequency(), cfg.ModAmplitude, cfg.ModTauRatio)
		// The config's own modulator plus clock triggering makes the whole
		// acquisition schedule a pure function of (cfg, probe); share it.
		wu = warmupFor(cfg, probe)
	}
	r := &Reflectometer{
		cfg:   cfg,
		comp:  analog.NewComparator(cfg.ComparatorNoise, cfg.ComparatorOffset, stream.Child("comparator")),
		mod:   mod,
		apc:   NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset),
		probe: probe,
		envRN: stream.Child("environment"),
		wu:    wu,
	}
	if wu != nil {
		r.fwd = wu.fwd
	}
	return r, nil
}

// MustNew is New but panics on configuration errors; for tests and examples
// with static configuration.
func MustNew(cfg Config, probe txline.Probe, mod analog.Modulator, stream *rng.Stream) *Reflectometer {
	r, err := New(cfg, probe, mod, stream)
	if err != nil {
		panic(fmt.Sprintf("itdr: %v", err))
	}
	return r
}

// Config returns the instrument configuration.
func (r *Reflectometer) Config() Config { return r.cfg }

// InjectOffsetDrift adds v volts of *uncalibrated* comparator offset — aging
// or supply drift that happened after factory calibration, which the APC's
// inverse map does not know about. Reconstruction then carries a systematic
// bias; the offset-drift ablation quantifies how much drift the
// authentication margin tolerates before recalibration is due.
func (r *Reflectometer) InjectOffsetDrift(v float64) {
	r.comp.Offset += v
}

// Probe returns the probing-edge description.
func (r *Reflectometer) Probe() txline.Probe { return r.probe }

// Measure acquires one full IIP of the line under the given environment.
// The environment condition (temperature, strain, EMI phase) is sampled once
// per measurement; comparator noise is drawn per trial. The returned
// Measurement owns its memory (it is detached from the pooled arena backing
// the acquisition), so callers may retain it across further measurements —
// calibration averaging depends on that.
func (r *Reflectometer) Measure(line *txline.Line, env txline.Environment) Measurement {
	a := arenaPool.Get().(*Arena)
	m := r.MeasureInto(a, line, env)
	m.IIP = m.IIP.Clone()
	m.Saturated = append([]bool(nil), m.Saturated...)
	arenaPool.Put(a)
	return m
}

// MeasureInto is Measure running entirely inside the caller's arena: the
// returned Measurement's IIP and Saturated alias the arena's buffers and are
// valid until the next MeasureInto on the same arena. In steady state (warm
// arena, and a warm per-bin inverter cache or the shared warmup's tables) a
// measurement allocates nothing; results are bit-identical to Measure.
func (r *Reflectometer) MeasureInto(a *Arena, line *txline.Line, env txline.Environment) Measurement {
	cond := env.Sample(r.envRN)
	return r.measureUnder(a, line, cond)
}

// measureUnder runs the acquisition for a fixed environmental condition.
//
// Like the hardware iTDR, one capture takes its bins one after another on
// the calling goroutine; concurrency lives at coarser units (links, wires).
// Every bin owns its trigger search, its trial loop, and its inverse-map
// evaluation, and derives all of its randomness (trigger pattern, EMI phase,
// PLL jitter, comparator noise) from its own labelled child of the
// per-measurement stream, so a bin's draws never depend on how many bins ran
// before it.
func (r *Reflectometer) measureUnder(a *Arena, line *txline.Line, cond txline.Condition) Measurement {
	r.seq++
	seq := r.seq
	cfg := r.cfg
	bins := cfg.Bins()
	rate := cfg.EquivalentRate()

	// Consult the fault injector first: environmental glitches must land
	// before the line response is synthesized. Incrementing seq first
	// (rather than just before the per-measurement stream derivation
	// below) changes nothing on the healthy path — no randomness is drawn
	// in between.
	var mf MeasurementFault
	faulted := false
	if r.inj != nil {
		mf, faulted = r.inj.BeginMeasurement(seq)
	}
	if faulted && mf.Condition != nil {
		ct := mf.Condition(ConditionTransform{DeltaT: cond.DeltaT, EMIAmplitude: cond.EMIAmplitude})
		cond.DeltaT = ct.DeltaT
		cond.EMIAmplitude = ct.EMIAmplitude
	}

	a.prepare(rate, bins, cfg.TrialsPerBin)

	// Physical truth: the back-reflection waveform for this condition, and
	// the incident edge that leaks through the coupler's finite directivity.
	// The forward edge depends only on static configuration, so it is
	// synthesized once per instrument and reused.
	backward := line.ReflectInto(&a.reflect, r.probe, cond.DeltaT, cond.Stretch, rate, bins)
	if r.fwd == nil || r.fwd.Rate != rate || r.fwd.Len() != bins {
		r.fwd = signal.StepEdge(rate, bins, 0, r.probe.RiseTime, r.probe.Amplitude)
	}
	a.seen = cfg.Coupler.OutputInto(a.seen, backward, r.fwd)
	// Directional couplers are inherently AC-coupled: the DC level of the
	// reflected waveform (set by the line's average impedance offset from
	// nominal) never reaches the detector. Removing it keeps the waveform
	// centered in the APC's dynamic range regardless of which line is
	// attached — without this, lines with a large average offset would
	// saturate the comparator range. (In place: the coupler output above is
	// a buffer this measurement owns.)
	seen := signal.RemoveMeanInPlace(a.seen)

	// Fresh randomness for each measurement: the trigger pattern depends
	// on the live traffic and the EMI aggressor drifts in phase, so
	// neither may repeat identically between measurements.
	a.mStream.ReseedChildN(r.envRN, "measurement", seq)
	if r.wu == nil && len(r.binInv) != bins {
		r.binInv = make([]*Inverter, bins)
		r.binInvStore = make([]Inverter, bins)
	}

	// Jitter faults add in quadrature to the PLL's own phase noise.
	jitterRMS := cfg.PhaseJitterRMS
	if faulted && mf.ExtraJitterRMS > 0 {
		jitterRMS = math.Sqrt(jitterRMS*jitterRMS + mf.ExtraJitterRMS*mf.ExtraJitterRMS)
	}

	// Deterministic per-bin cycle base: bin m behaves as if it were acquired
	// after the m bins before it, preserving the sequential path's Vernier
	// phase rotation from bin to bin (without it, every bin would sweep the
	// reference levels from the same phase and the quantization residual
	// would correlate across the whole IIP). For data-triggered modes the
	// base uses the expected stride 1/density.
	binStride := cfg.TrialsPerBin
	if cfg.Trigger != TriggerClock {
		binStride = int(float64(cfg.TrialsPerBin) / cfg.TriggerDensity)
	}

	a.ctx = binCtx{
		cond:        cond,
		seen:        seen,
		mf:          mf,
		faulted:     faulted,
		distorted:   faulted && mf.distortsTrials(),
		plain:       r.wu != nil && !faulted && cond.EMIAmplitude == 0,
		jitterRMS:   jitterRMS,
		clockPeriod: 1 / cfg.SampleClockHz,
		binStride:   binStride,
		wu:          r.wu,
	}
	if r.warmed {
		a.ctx.est = r.wu.estimates()
	}
	for m := 0; m < bins; m++ {
		r.measureBin(a, m)
	}
	r.warmed = r.wu != nil

	cycles := 0
	for _, c := range a.binCycles {
		cycles += c
	}
	if r.sink != nil {
		sat := 0
		for _, s := range a.saturated {
			if s {
				sat++
			}
		}
		r.sink.Emit(telemetry.Event{
			Kind: telemetry.EventMeasurement,
			Link: r.link, Side: r.side,
			Round: seq, SatBins: sat,
		})
	}
	return Measurement{
		IIP:        a.out,
		Trials:     bins * cfg.TrialsPerBin,
		CyclesUsed: cycles,
		Duration:   float64(cycles) / cfg.SampleClockHz,
		Saturated:  a.saturated,
	}
}

// binCtx is the per-measurement state every bin reads; it lives inside the
// arena so assembling it per measurement costs nothing.
type binCtx struct {
	cond      txline.Condition
	seen      *signal.Waveform
	mf        MeasurementFault
	faulted   bool
	distorted bool
	// plain marks a measurement whose bins draw exactly one (jitter, noise)
	// pair per trial and nothing else: a shared warmup's clock-triggered
	// schedule, no active fault and no EMI. Its bins take plainTrials.
	plain       bool
	jitterRMS   float64
	clockPeriod float64
	binStride   int
	wu          *warmup
	// est, when non-nil, is the warmup's per-bin reconstruction tables —
	// set once the instrument's first capture is behind it.
	est []warmBin
}

// measureBin acquires one ETS phase bin: trigger search, trial loop, and
// inverse-map evaluation. All randomness derives from the bin index through
// the bin's labelled child stream.
func (r *Reflectometer) measureBin(a *Arena, m int) {
	cfg := r.cfg
	c := &a.ctx
	a.binRN.ReseedChildN(a.mStream, "bin", uint64(m))
	tBin := float64(m) * cfg.PhaseStepSec
	xtalk := c.cond.CrosstalkAt(tBin)
	var ones, cycle int
	if c.plain {
		ones, cycle = r.plainTrials(a, c.wu.refs[m], tBin, xtalk), cfg.TrialsPerBin
	} else {
		ones, cycle = r.trials(a, m, tBin, xtalk)
	}
	a.saturated[m] = ones == 0 || ones == cfg.TrialsPerBin
	a.binCycles[m] = cycle
	switch {
	case c.est != nil:
		// The bin's estimate is a pure function of its count: one load.
		a.out.Samples[m] = c.est[m].est[ones]
	case c.wu != nil:
		a.out.Samples[m] = c.wu.coldEstimate(m, ones)
	default:
		a.out.Samples[m] = r.invertBin(a.scratch, m, ones)
	}
}

// plainTrials is the trial loop of a plain measurement (binCtx.plain):
// every trial samples the bin at tBin plus PLL jitter and compares against
// the shared reference with fresh comparator noise. It batches the bin's
// normal draws into the arena up front and then decides every trial with
// the same expressions the general loop evaluates — Gaussian's
// `0 + sigma*n`, the same Waveform.At sample, SampleWith's comparison — so
// its counts are bit-identical to trials' on the same stream. It returns
// the ones count.
func (r *Reflectometer) plainTrials(a *Arena, refs []float64, tBin, xtalk float64) int {
	jit := a.ctx.jitterRMS
	sigma, off := r.comp.NoiseSigma, r.comp.Offset
	ones := 0
	if jit > 0 {
		// Each trial draws its PLL jitter, then its comparator noise.
		draws := a.draws[:2*len(refs)]
		a.binRN.NormFloat64s(draws)
		seen := a.ctx.seen
		for j, ref := range refs {
			v := seen.At(tBin + (0 + jit*draws[2*j]))
			if v+xtalk+off+(0+sigma*draws[2*j+1]) > ref {
				ones++
			}
		}
		return ones
	}
	// Without jitter every trial samples the same instant; the only draw is
	// the comparator noise.
	draws := a.draws[:len(refs)]
	a.binRN.NormFloat64s(draws)
	vsig := a.ctx.seen.At(tBin) + xtalk
	for j, ref := range refs {
		if vsig+off+(0+sigma*draws[j]) > ref {
			ones++
		}
	}
	return ones
}

// trials is the general trial loop: every trigger mode, explicit
// modulators, EMI, and every fault. It is the only path that serves those
// inputs and the oracle plainTrials is pinned against. It returns the ones
// count (after any counter upset) and the cycles the bin consumed. Without a
// warmup the bin's reference levels are left in the arena's scratch for
// the inverse map.
func (r *Reflectometer) trials(a *Arena, m int, tBin, xtalk float64) (ones, cycle int) {
	cfg := r.cfg
	c := &a.ctx
	bs := a.binRN
	// With a shared warmup the bin's reference schedule was precomputed once
	// for the whole fleet: read it instead of re-evaluating the modulator per
	// trial. wuRefs is immutable — the trial loop must not write it.
	refs := a.scratch
	var wuRefs []float64
	if c.wu != nil {
		wuRefs = c.wu.refs[m]
	}
	var bf BinFault
	if c.faulted && c.mf.Bin != nil {
		bf = c.mf.Bin(m)
	}
	cycleBase := m * c.binStride
	for j := 0; j < cfg.TrialsPerBin; j++ {
		// Advance to the bin's next cycle carrying a usable launch edge.
		polarity := 1.0
		switch cfg.Trigger {
		case TriggerClock:
			cycle++
		case TriggerFIFO:
			for {
				cycle++
				if bs.Bool(cfg.TriggerDensity) {
					break
				}
			}
		case TriggerNone:
			for {
				cycle++
				if bs.Bool(2 * cfg.TriggerDensity) {
					break
				}
			}
			// Edge direction is uncontrolled: half the launches are
			// rising, half falling, and a falling edge's reflection is
			// the negative of the rising edge's.
			if bs.Bool(0.5) {
				polarity = -1
			}
		}
		var ref float64
		if wuRefs != nil {
			ref = wuRefs[j]
		} else {
			tAbs := float64(cycleBase+cycle)*c.clockPeriod + tBin
			ref = r.mod.Level(tAbs)
			refs[j] = ref
		}
		// The EMI aggressor is asynchronous to the sampling clock: its
		// frequency offset and jitter decorrelate the phase between
		// successive visits to the same bin, so each trial sees an
		// independent phase — the premise of the paper's synchronized-
		// averaging argument (§IV-C). A phase-locked aggressor would
		// not average out; that adversarial case is out of scope here.
		var emi float64
		if c.cond.EMIAmplitude != 0 {
			emi = c.cond.EMIAmplitude * math.Sin(bs.Uniform(0, 2*math.Pi))
		}
		// The PLL's phase-shifted clock jitters around the nominal
		// bin position, so each trial samples the waveform slightly
		// off-bin — a timing-noise contribution that scales with the
		// local slew rate.
		tSample := tBin
		if c.faulted {
			tSample += c.mf.PhaseOffset
		}
		if c.jitterRMS > 0 {
			tSample += bs.Gaussian(0, c.jitterRMS)
		}
		vsig := polarity*c.seen.At(tSample) + emi + xtalk
		// Fault paths replace the comparator decision; the healthy
		// branch is byte-for-byte the original sampling call.
		var dec bool
		switch {
		case bf.Dead:
			// A dead acquisition slice never fires; no noise is drawn,
			// mirroring hardware where the counter simply sees no pulses.
		case c.faulted && c.mf.Stuck == StuckLow:
		case c.faulted && c.mf.Stuck == StuckHigh:
			dec = true
		case c.distorted:
			dec = r.comp.SampleDistorted(bs, vsig, ref, c.mf.ExtraOffset, c.mf.noiseScale())
		default:
			dec = r.comp.SampleWith(bs, vsig, ref)
		}
		if dec {
			ones++
		}
	}
	if bf.CounterXOR != 0 {
		ones ^= int(bf.CounterXOR)
		if ones > cfg.TrialsPerBin {
			// The physical counter is TrialsPerBin wide; an upset cannot
			// read beyond full scale.
			ones = cfg.TrialsPerBin
		}
	}
	return ones, cycle
}

// invertBin reconstructs bin m of an instrument without a warmup from its
// ones count, through the per-bin inverse-map cache: reuse the inverter
// while the bin's reference sequence (refs, as the trial loop left it)
// repeats and promote it to a tabulated CDF on the first reuse.
// Data-triggered modes see fresh cycle offsets each measurement, so they
// rebuild — still cheaper than before thanks to the sorted, windowed CDF.
func (r *Reflectometer) invertBin(refs []float64, m, ones int) float64 {
	cfg := r.cfg
	inv := r.binInv[m]
	switch {
	case inv == nil || !inv.Matches(refs):
		// Cache miss: rebuild in place into the flat per-bin store — one
		// slice for all bins instead of a heap Inverter per bin.
		inv = &r.binInvStore[m]
		r.apc.resetInverter(inv, refs)
		r.binInv[m] = inv
	default:
		inv.Promote()
	}
	// Refer the estimate back to the line by undoing the coupler gain.
	p := float64(ones) / float64(cfg.TrialsPerBin)
	return inv.Estimate(p, cfg.TrialsPerBin) / cfg.Coupler.Factor
}
