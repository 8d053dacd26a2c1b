package itdr

import (
	"math"
	"testing"

	"divot/internal/analog"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/telemetry"
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

// seriesLog collects telemetry events in emission order.
type seriesLog struct{ events []telemetry.Event }

func (l *seriesLog) Emit(e telemetry.Event) { l.events = append(l.events, e) }

// runSequential is the reference: n MeasureInto calls, results detached.
func runSequential(r *Reflectometer, line *txline.Line, env txline.Environment, n int) []*signal.Waveform {
	a := NewArena()
	out := make([]*signal.Waveform, n)
	for i := 0; i < n; i++ {
		out[i] = r.MeasureInto(a, line, env).IIP.Clone()
	}
	return out
}

// TestMeasureSeriesMatchesSequential proves the series fan-out is
// bit-identical to sequential acquisition at any worker count — same IIPs,
// same telemetry events in the same order, same instrument state afterwards.
func TestMeasureSeriesMatchesSequential(t *testing.T) {
	const n = 9
	for _, workers := range []int{1, 2, 8} {
		cfg := DefaultConfig()
		lineA, ra := testRig(t, 17, cfg)
		lineB, rb := testRig(t, 17, cfg)
		var logA, logB seriesLog
		ra.SetSink(&logA, "bus", "cpu")
		rb.SetSink(&logB, "bus", "cpu")
		env := txline.RoomTemperature()

		want := runSequential(ra, lineA, env, n)
		got := make([]*signal.Waveform, 0, n)
		rb.MeasureSeries(NewArena(), lineB, env, n, workers, func(i int, m Measurement) {
			if i != len(got) {
				t.Fatalf("workers=%d: consume out of order: got index %d want %d", workers, i, len(got))
			}
			got = append(got, m.IIP.Clone())
		})
		if len(got) != n {
			t.Fatalf("workers=%d: %d measurements, want %d", workers, len(got), n)
		}
		for i := range want {
			for b := range want[i].Samples {
				if math.Float64bits(got[i].Samples[b]) != math.Float64bits(want[i].Samples[b]) {
					t.Fatalf("workers=%d: measurement %d bin %d differs", workers, i, b)
				}
			}
		}
		if len(logA.events) != len(logB.events) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(logB.events), len(logA.events))
		}
		for i := range logA.events {
			if logA.events[i] != logB.events[i] {
				t.Fatalf("workers=%d: event %d differs: %+v != %+v",
					workers, i, logB.events[i], logA.events[i])
			}
		}

		// Instrument state (seq, inverter cache) must come out identical:
		// the next measurement on each rig has to agree bit for bit.
		wNext := ra.Measure(lineA, env)
		gNext := rb.Measure(lineB, env)
		for b := range wNext.IIP.Samples {
			if math.Float64bits(gNext.IIP.Samples[b]) != math.Float64bits(wNext.IIP.Samples[b]) {
				t.Fatalf("workers=%d: post-series measurement differs at bin %d", workers, b)
			}
		}
	}
}

// TestMeasureSeriesFallback covers the ineligible cases (data-triggered
// probing has no frozen schedule): the series must silently run the
// sequential loop and stay identical.
func TestMeasureSeriesFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trigger = TriggerFIFO
	lineA, ra := testRig(t, 23, cfg)
	lineB, rb := testRig(t, 23, cfg)
	env := txline.RoomTemperature()
	if ra.wu != nil {
		t.Fatal("FIFO-triggered rig should have no warmup")
	}
	const n = 5
	want := runSequential(ra, lineA, env, n)
	i := 0
	rb.MeasureSeries(NewArena(), lineB, env, n, 8, func(idx int, m Measurement) {
		for b := range want[idx].Samples {
			if math.Float64bits(m.IIP.Samples[b]) != math.Float64bits(want[idx].Samples[b]) {
				t.Fatalf("measurement %d bin %d differs", idx, b)
			}
		}
		i++
	})
	if i != n {
		t.Fatalf("%d measurements, want %d", i, n)
	}
}

// TestWarmupMatchesExplicitModulator proves the fleet-shared warmup changes
// no numerics: an instrument using the config's implicit modulator (warmup
// on) must measure bit-identically to one handed the same modulator
// explicitly (warmup off).
func TestWarmupMatchesExplicitModulator(t *testing.T) {
	cfg := DefaultConfig()
	lineA, ra := testRig(t, 41, cfg) // implicit modulator → warmup
	lineB, rb := testRigExplicitMod(t, 41, cfg)
	if ra.wu == nil {
		t.Fatal("default rig should have a warmup")
	}
	if rb.wu != nil {
		t.Fatal("explicit-modulator rig should have no warmup")
	}
	env := txline.RoomTemperature()
	for round := 0; round < 3; round++ {
		want := rb.Measure(lineB, env)
		got := ra.Measure(lineA, env)
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
	}
}
