package itdr

import (
	"math"
	"sync"
	"testing"

	"divot/internal/analog"
	"divot/internal/rng"
	"divot/internal/txline"
)

// testRigExplicitMod is testRig handing New the very modulator the config
// would build implicitly, which disables the shared warmup.
func testRigExplicitMod(t *testing.T, seed uint64, cfg Config) (*txline.Line, *Reflectometer) {
	t.Helper()
	stream := rng.New(seed)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	mod := analog.NewTriangleModulator(cfg.ModFrequency(), cfg.ModAmplitude, cfg.ModTauRatio)
	r, err := New(cfg, txline.DefaultProbe(), mod, stream.Child("itdr"))
	if err != nil {
		t.Fatal(err)
	}
	return line, r
}

// scheduleInjector replays a fixed per-sequence fault schedule; sequence
// numbers it does not list run healthy.
type scheduleInjector map[uint64]MeasurementFault

func (s scheduleInjector) BeginMeasurement(seq uint64) (MeasurementFault, bool) {
	mf, ok := s[seq]
	return mf, ok
}

// oracleFaults exercises every fault seam on the warmup side's general
// loop, interleaved with healthy rounds that take the plain loop: the first
// capture is faulted (cold estimates through the bisect memo), later ones
// mix dead bins, counter upsets, comparator distortion, a PLL phase step,
// extra jitter, a stuck comparator and an EMI burst.
var oracleFaults = scheduleInjector{
	1: {Bin: func(m int) BinFault { return BinFault{Dead: m%50 == 7, CounterXOR: uint32(m % 5)} }},
	3: {ExtraOffset: 0.3e-3, NoiseScale: 1.5},
	4: {PhaseOffset: 7e-12, ExtraJitterRMS: 2e-12},
	6: {Stuck: StuckHigh},
	7: {Condition: func(ct ConditionTransform) ConditionTransform {
		ct.EMIAmplitude = 0.5e-3
		return ct
	}},
}

// TestWarmupMatchesExplicitModulator proves the fleet-shared warmup changes
// no numerics: an instrument using the config's implicit modulator (shared
// warmup: plain trial loop, bisect memo on the first capture, shared
// reconstruction tables after it) must measure bit-identically to one handed
// the same modulator explicitly (no warmup: the general trial loop and the
// per-bin inverter cache) — cold and warm, with and without PLL jitter,
// under crosstalk and EMI, and under an active fault schedule.
func TestWarmupMatchesExplicitModulator(t *testing.T) {
	noJitter := DefaultConfig()
	noJitter.PhaseJitterRMS = 0
	cases := []struct {
		name   string
		cfg    Config
		env    txline.Environment
		faults scheduleInjector
	}{
		{"room", DefaultConfig(), txline.RoomTemperature(), nil},
		{"no-jitter", noJitter, txline.OvenSwing(), nil},
		{"crosstalk", DefaultConfig(), txline.Crosstalk(1.5e-3, 400e-12), nil},
		{"crosstalk-no-jitter", noJitter, txline.Crosstalk(1.5e-3, 400e-12), nil},
		{"emi", DefaultConfig(), txline.EMI(0.8e-3, 333e6), nil},
		{"faults", DefaultConfig(), txline.RoomTemperature(), oracleFaults},
		{"faults-no-jitter", noJitter, txline.Vibration(2e-3), oracleFaults},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lineA, ra := testRig(t, 41, tc.cfg) // implicit modulator → warmup
			lineB, rb := testRigExplicitMod(t, 41, tc.cfg)
			if ra.wu == nil {
				t.Fatal("default rig should have a warmup")
			}
			if rb.wu != nil {
				t.Fatal("explicit-modulator rig should have no warmup")
			}
			if tc.faults != nil {
				ra.SetInjector(tc.faults)
				rb.SetInjector(tc.faults)
			}
			for round := 1; round <= 8; round++ {
				want := rb.Measure(lineB, tc.env)
				got := ra.Measure(lineA, tc.env)
				for b := range want.IIP.Samples {
					if math.Float64bits(got.IIP.Samples[b]) != math.Float64bits(want.IIP.Samples[b]) {
						t.Fatalf("round %d bin %d: warmup %v != explicit %v",
							round, b, got.IIP.Samples[b], want.IIP.Samples[b])
					}
				}
				for b, s := range want.Saturated {
					if got.Saturated[b] != s {
						t.Fatalf("round %d bin %d: saturation mismatch", round, b)
					}
				}
				if got.CyclesUsed != want.CyclesUsed {
					t.Fatalf("round %d: %d cycles, explicit %d", round, got.CyclesUsed, want.CyclesUsed)
				}
			}
			if ra.binInv != nil || ra.binInvStore != nil {
				t.Error("warmup-backed instrument built per-bin inverters")
			}
		})
	}
}

// TestWarmupEstimatesMatchPromotedInverter pins every entry of the shared
// reconstruction tables to the map they replace: a promoted Inverter built
// independently from the bin's reference levels, evaluated at count k and
// referred back to the line, bit for bit.
func TestWarmupEstimatesMatchPromotedInverter(t *testing.T) {
	cfg := DefaultConfig()
	w := warmupFor(cfg, txline.DefaultProbe())
	apc := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset)
	T := cfg.TrialsPerBin
	bins := w.estimates()
	for m := range bins {
		wb := &bins[m]
		if len(wb.est) != T+1 {
			t.Fatalf("bin %d: %d table entries, want %d", m, len(wb.est), T+1)
		}
		iv := apc.NewInverter(w.refs[m])
		iv.Promote()
		for k, got := range wb.est {
			want := iv.Estimate(float64(k)/float64(T), T) / cfg.Coupler.Factor
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bin %d count %d: table %v, promoted inverter %v", m, k, got, want)
			}
		}
	}
}

// TestWarmupEstimatesConcurrentFirstUse has several instruments ask a fresh
// warmup for its reconstruction tables at once, as a fleet's second round
// does: every caller must see the same fully built tables (run under -race).
func TestWarmupEstimatesConcurrentFirstUse(t *testing.T) {
	cfg := DefaultConfig()
	w := newWarmup(cfg, txline.DefaultProbe())
	const callers = 4
	got := make([][]warmBin, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = w.estimates()
		}()
	}
	wg.Wait()
	for i, bins := range got {
		for m := range bins {
			if len(bins[m].est) != cfg.TrialsPerBin+1 || &bins[m].est[0] != &w.bins[m].est[0] {
				t.Fatalf("caller %d bin %d: tables not shared or not built", i, m)
			}
		}
	}
}
