package itdr

import (
	"math"
	"sync"

	"divot/internal/analog"
	"divot/internal/signal"
	"divot/internal/stats"
	"divot/internal/txline"
)

// warmup holds everything about an instrument's acquisition that is a pure
// function of (Config, Probe) under clock-triggered probing: the forward
// incident edge, the per-bin Vernier reference sequences, the per-bin
// composite CDFs with a memo of cold bisections, and the per-bin
// reconstruction tables. Clock triggering advances every bin by exactly one
// cycle per trial, so the reference schedule — and therefore each bin's
// inverse map — is identical for every measurement of every instrument
// sharing the configuration. A 1000-bus fleet of identical buses builds all
// of this once instead of a thousand times, which is the fleet-wide dedup of
// the composite-CDF/synthesis warm-up.
//
// Everything here is immutable once built (the bisect memos are internally
// synchronized, the reconstruction tables are published through a
// sync.Once), so sharing across instruments and goroutines is free. Values
// produced through the warmup are bit-identical to the uncached path: the
// refs come from the same Level calls at the same times, the CDFs from the
// same constructor, the memoized Invert from the same pure bisection, and
// each table entry from the same promoted Inverter.Estimate an instrument
// without a warmup evaluates per bin.
type warmup struct {
	fwd  *signal.Waveform
	refs [][]float64
	bins []warmBin

	// trials and factor are the config's TrialsPerBin and coupler factor:
	// the inputs, besides a bin's CDF, of its reconstruction table.
	trials  int
	factor  float64
	estOnce sync.Once
}

// warmBin is the shared immutable inverse-map core for one ETS phase bin.
type warmBin struct {
	cdf  *stats.CompositeCDF
	memo bisectMemo
	// est[k] is the line-referred estimate of a promoted inverter for a
	// ones count of k: Inverter.Estimate(k/T, T) / Coupler.Factor on the
	// shared promoted table, for k in [0, T]. Built on first use by
	// estimates.
	est []float64
}

// estimates returns the per-bin reconstruction tables, tabulating them on
// the first call. They serve every capture after an instrument's first:
// from then on a bin's estimate depends on nothing but its ones count, so
// reconstruction is one indexed load per bin.
func (w *warmup) estimates() []warmBin {
	w.estOnce.Do(func() {
		n := w.trials + 1
		flat := make([]float64, len(w.bins)*n)
		for m := range w.bins {
			wb := &w.bins[m]
			iv := Inverter{cdf: wb.cdf}
			iv.Promote()
			est := flat[m*n : (m+1)*n : (m+1)*n]
			for k := range est {
				est[k] = iv.Estimate(float64(k)/float64(w.trials), w.trials) / w.factor
			}
			wb.est = est
		}
	})
	return w.bins
}

// coldEstimate is bin m's line-referred estimate for a ones count of k from
// an un-promoted inverter — an instrument's first capture — bisecting
// through the bin's shared memo.
func (w *warmup) coldEstimate(m, k int) float64 {
	wb := &w.bins[m]
	p := clampFraction(float64(k)/float64(w.trials), w.trials)
	return wb.memo.invert(wb.cdf, p) / w.factor
}

// bisectMemo caches CompositeCDF.Invert results for an instrument's first
// capture, whose inverters are not yet promoted. Invert is a pure function
// of the CDF parameters and p, and with TrialsPerBin trials p takes at most
// TrialsPerBin+1 distinct clamped values, so the memo stays tiny while
// collapsing the fleet's cold-start bisection cost: after the first
// instrument's first measurement, every other instrument's first measurement
// inverts by lookup.
type bisectMemo struct {
	m sync.Map // math.Float64bits(p) → float64
}

func (bm *bisectMemo) invert(cdf *stats.CompositeCDF, p float64) float64 {
	key := math.Float64bits(p)
	if v, ok := bm.m.Load(key); ok {
		return v.(float64)
	}
	v := cdf.Invert(p)
	bm.m.Store(key, v)
	return v
}

// warmupKey identifies one shared warmup: the full instrument config (with
// the parallelism knob zeroed — it cannot affect any cached value) plus the
// probe shape the forward edge is built from.
type warmupKey struct {
	cfg   Config
	probe txline.Probe
}

// warmupCache deduplicates warmups process-wide. Growth is bounded by the
// set of distinct (Config, Probe) pairs the process instantiates — one entry
// for a homogeneous fleet, a few dozen for an experiment sweep — at roughly
// 150 KB per entry at the default geometry, plus 70 KB of reconstruction
// tables once a second capture has asked for them.
var warmupCache sync.Map // warmupKey → *warmupEntry

type warmupEntry struct {
	once sync.Once
	w    *warmup
}

// warmupFor returns the shared warmup for the configuration, building it at
// most once per process. Only clock-triggered configs have one: data-
// triggered modes draw their cycle advances from per-measurement randomness,
// so their reference schedules never repeat.
func warmupFor(cfg Config, probe txline.Probe) *warmup {
	if cfg.Trigger != TriggerClock {
		return nil
	}
	key := warmupKey{cfg: cfg, probe: probe}
	e, _ := warmupCache.LoadOrStore(key, &warmupEntry{})
	ent := e.(*warmupEntry)
	ent.once.Do(func() { ent.w = newWarmup(cfg, probe) })
	return ent.w
}

// newWarmup precomputes the shared acquisition state. Every expression below
// mirrors the per-measurement code byte for byte: the forward edge matches
// measureUnder's lazy StepEdge, the trial times and Level calls match
// measureBin's clock-triggered loop, and the CDF construction matches
// APC.NewInverter.
func newWarmup(cfg Config, probe txline.Probe) *warmup {
	bins := cfg.Bins()
	rate := cfg.EquivalentRate()
	mod := analog.NewTriangleModulator(cfg.ModFrequency(), cfg.ModAmplitude, cfg.ModTauRatio)
	apc := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset)
	sigma := apc.gaussian().Sigma
	clockPeriod := 1 / cfg.SampleClockHz

	w := &warmup{
		fwd:    signal.StepEdge(rate, bins, 0, probe.RiseTime, probe.Amplitude),
		refs:   make([][]float64, bins),
		bins:   make([]warmBin, bins),
		trials: cfg.TrialsPerBin,
		factor: cfg.Coupler.Factor,
	}
	for m := 0; m < bins; m++ {
		tBin := float64(m) * cfg.PhaseStepSec
		cycleBase := m * cfg.TrialsPerBin // binStride == TrialsPerBin under TriggerClock
		refs := make([]float64, cfg.TrialsPerBin)
		cycle := 0
		for j := 0; j < cfg.TrialsPerBin; j++ {
			cycle++
			tAbs := float64(cycleBase+cycle)*clockPeriod + tBin
			refs[j] = mod.Level(tAbs)
		}
		w.refs[m] = refs
		centers := make([]float64, len(refs))
		for i, r := range refs {
			centers[i] = r - apc.Offset
		}
		w.bins[m].cdf = stats.NewCompositeCDF(sigma, centers)
	}
	return w
}
