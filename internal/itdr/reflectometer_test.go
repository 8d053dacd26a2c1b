package itdr

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/txline"
)

func testRig(t *testing.T, seed uint64, cfg Config) (*txline.Line, *Reflectometer) {
	t.Helper()
	stream := rng.New(seed)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	r, err := New(cfg, txline.DefaultProbe(), nil, stream.Child("itdr"))
	if err != nil {
		t.Fatal(err)
	}
	return line, r
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"clock":     func(c *Config) { c.SampleClockHz = 0 },
		"phase":     func(c *Config) { c.PhaseStepSec = -1 },
		"window":    func(c *Config) { c.WindowSec = 0 },
		"windowBig": func(c *Config) { c.WindowSec = 1 },
		"trials":    func(c *Config) { c.TrialsPerBin = 0 },
		"ratio":     func(c *Config) { c.ModFreqRatioNum = 0 },
		"noise":     func(c *Config) { c.ComparatorNoise = 0 },
		"density":   func(c *Config) { c.Trigger = TriggerFIFO; c.TriggerDensity = 0 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.EquivalentRate(); math.Abs(got-1/11.16e-12)/got > 1e-12 {
		t.Errorf("equivalent rate = %v", got)
	}
	// Paper: >80 GHz equivalent rate and ~0.837 mm resolution at 15 cm/ns.
	if cfg.EquivalentRate() < 80e9 {
		t.Errorf("equivalent rate %v below the paper's 80 GHz", cfg.EquivalentRate())
	}
	res := cfg.SpatialResolution(1.5e8)
	if math.Abs(res-0.837e-3) > 0.01e-3 {
		t.Errorf("spatial resolution = %v m, want ~0.837 mm", res)
	}
	if cfg.Bins() != int(cfg.WindowSec/cfg.PhaseStepSec) {
		t.Errorf("Bins = %d", cfg.Bins())
	}
	if cfg.TotalTrials() != cfg.Bins()*cfg.TrialsPerBin {
		t.Errorf("TotalTrials = %d", cfg.TotalTrials())
	}
	// Paper: authentication and tamper detection complete within 50 µs.
	if d := cfg.MeasurementDuration(); d > 60e-6 {
		t.Errorf("measurement duration %v s exceeds the 50 µs envelope", d)
	}
	if got := cfg.ModFrequency(); math.Abs(got-156.25e6*26/25) > 1 {
		t.Errorf("modulation frequency = %v", got)
	}
}

func TestMeasureReconstructsReflection(t *testing.T) {
	line, r := testRig(t, 1, DefaultConfig())
	cfg := r.Config()
	truth := line.Reflect(r.Probe(), 0, 1, cfg.EquivalentRate(), cfg.Bins())
	m := r.Measure(line, txline.Environment{TempC: 23})
	if m.IIP.Len() != cfg.Bins() {
		t.Fatalf("IIP length %d, want %d", m.IIP.Len(), cfg.Bins())
	}
	// The reconstruction must correlate strongly with the physical truth.
	// The coupler's directivity leakage adds a known forward-wave artifact,
	// so compare after mean removal.
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(m.IIP), signal.RemoveMean(truth))
	if sim < 0.82 {
		t.Errorf("reconstruction correlates with truth at only %v", sim)
	}
}

func TestMeasureRepeatable(t *testing.T) {
	line, r := testRig(t, 2, DefaultConfig())
	env := txline.Environment{TempC: 23}
	a := r.Measure(line, env)
	b := r.Measure(line, env)
	// Raw single-shot measurements carry per-bin counting noise; the
	// fingerprint layer narrows this with matched-bandwidth smoothing and
	// enrollment averaging. Raw repeatability just needs to be strong.
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(a.IIP), signal.RemoveMean(b.IIP))
	if sim < 0.85 {
		t.Errorf("back-to-back measurements correlate at only %v", sim)
	}
}

func TestMeasureAccounting(t *testing.T) {
	line, r := testRig(t, 3, DefaultConfig())
	m := r.Measure(line, txline.Environment{TempC: 23})
	cfg := r.Config()
	if m.Trials != cfg.TotalTrials() {
		t.Errorf("Trials = %d, want %d", m.Trials, cfg.TotalTrials())
	}
	if m.CyclesUsed != m.Trials {
		t.Errorf("clock-triggered measurement used %d cycles for %d trials", m.CyclesUsed, m.Trials)
	}
	if math.Abs(m.Duration-float64(m.CyclesUsed)/cfg.SampleClockHz) > 1e-12 {
		t.Errorf("Duration inconsistent: %v", m.Duration)
	}
}

func TestFIFOTriggerStretchesMeasurement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trigger = TriggerFIFO
	line, r := testRig(t, 4, cfg)
	m := r.Measure(line, txline.Environment{TempC: 23})
	// With density 0.25 the cycle count should be ~4x the trial count.
	ratio := float64(m.CyclesUsed) / float64(m.Trials)
	if ratio < 3 || ratio > 6 {
		t.Errorf("cycles/trials = %v, want ~4 at density 0.25", ratio)
	}
	// But the IIP must still be valid.
	truth := line.Reflect(r.Probe(), 0, 1, cfg.EquivalentRate(), cfg.Bins())
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(m.IIP), signal.RemoveMean(truth))
	if sim < 0.82 {
		t.Errorf("FIFO-triggered reconstruction correlates at only %v", sim)
	}
}

func TestUntriggersdEdgesCancel(t *testing.T) {
	// Ablation A-TR: without the FIFO trigger, rising and falling launches
	// mix and their reflections cancel (§II-E).
	cfg := DefaultConfig()
	cfg.Trigger = TriggerNone
	line, r := testRig(t, 5, cfg)
	truth := line.Reflect(r.Probe(), 0, 1, cfg.EquivalentRate(), cfg.Bins())
	m := r.Measure(line, txline.Environment{TempC: 23})
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(m.IIP), signal.RemoveMean(truth))
	if math.Abs(sim) > 0.5 {
		t.Errorf("untriggered measurement still correlates with truth at %v", sim)
	}
}

func TestMeasureDetectsTerminationChange(t *testing.T) {
	line, r := testRig(t, 6, DefaultConfig())
	env := txline.Environment{TempC: 23}
	before := r.Measure(line, env)
	// A realistic chip swap (+8 Ω). A gross change would saturate the
	// AC-coupled front end and smear the difference across the window —
	// still detected, but no longer cleanly localized.
	line.SetTermination(line.Termination() + 8)
	after := r.Measure(line, env)
	diff := signal.Sub(after.IIP, before.IIP)
	idx, _ := signal.PeakIndex(diff)
	peakTime := diff.TimeOf(idx)
	rt := line.RoundTripTime()
	if peakTime < rt-0.2e-9 || peakTime > rt+0.5e-9 {
		t.Errorf("termination change detected at %v s, want near %v s", peakTime, rt)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrialsPerBin = 0
	if _, err := New(cfg, txline.DefaultProbe(), nil, rng.New(1)); err == nil {
		t.Error("expected error for invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(cfg, txline.DefaultProbe(), nil, rng.New(1))
}

func TestInjectOffsetDriftBiasesReconstruction(t *testing.T) {
	line, r := testRig(t, 30, DefaultConfig())
	env := txline.Environment{TempC: 23}
	before := r.Measure(line, env)
	// A drift near the modulator swing severely distorts reconstruction.
	r.InjectOffsetDrift(12 * DefaultConfig().ComparatorNoise)
	after := r.Measure(line, env)
	sim := signal.NormalizedInnerProduct(signal.RemoveMean(before.IIP), signal.RemoveMean(after.IIP))
	if sim > 0.9 {
		t.Errorf("large uncalibrated drift should distort reconstruction, corr %v", sim)
	}
}

func TestPhaseJitterValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhaseJitterRMS = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative jitter should be rejected")
	}
}

func TestPhaseJitterDegradesGracefully(t *testing.T) {
	env := txline.Environment{TempC: 23}
	corr := func(jitter float64) float64 {
		cfg := DefaultConfig()
		cfg.PhaseJitterRMS = jitter
		line, r := testRig(t, 31, cfg)
		truth := line.Reflect(r.Probe(), 0, 1, cfg.EquivalentRate(), cfg.Bins())
		m := r.Measure(line, env)
		return signal.NormalizedInnerProduct(signal.RemoveMean(m.IIP), signal.RemoveMean(truth))
	}
	clean := corr(0)
	jittery := corr(100e-12)
	if jittery >= clean {
		t.Errorf("100 ps jitter (%v) should degrade vs ideal (%v)", jittery, clean)
	}
	if clean < 0.8 {
		t.Errorf("ideal-PLL correlation %v suspicious", clean)
	}
}
