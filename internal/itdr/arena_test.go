package itdr

import (
	"runtime"
	"testing"

	"divot/internal/rng"
	"divot/internal/txline"
)

// TestMeasureIntoMatchesMeasure proves the arena path is bit-identical to
// the allocating path across a sequence of measurements: two identically
// seeded rigs must reconstruct the same IIPs whether or not they recycle an
// arena.
func TestMeasureIntoMatchesMeasure(t *testing.T) {
	cfg := DefaultConfig()
	lineA, ra := testRig(t, 31, cfg)
	lineB, rb := testRig(t, 31, cfg)
	env := txline.RoomTemperature()
	arena := NewArena()
	for round := 0; round < 3; round++ {
		want := ra.Measure(lineA, env)
		got := rb.MeasureInto(arena, lineB, env)
		if want.Trials != got.Trials || want.CyclesUsed != got.CyclesUsed {
			t.Fatalf("round %d: accounting mismatch", round)
		}
		for i, v := range want.IIP.Samples {
			if got.IIP.Samples[i] != v {
				t.Fatalf("round %d bin %d: MeasureInto %v != Measure %v",
					round, i, got.IIP.Samples[i], v)
			}
		}
		for i, s := range want.Saturated {
			if got.Saturated[i] != s {
				t.Fatalf("round %d bin %d: saturation mismatch", round, i)
			}
		}
	}
}

// TestMeasureIntoAllocationFree is the arena's reason to exist: once the
// arena and the per-bin inverter cache are warm, a measurement must not
// allocate at all. It runs with two procs so a capture that fanned its bins
// out over goroutines would show up here.
func TestMeasureIntoAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	line, r := testRig(t, 7, DefaultConfig())
	env := txline.RoomTemperature()
	arena := NewArena()
	// Warm-up: first measurement sizes the arena and builds the inverters,
	// second promotes them to tabulated CDFs.
	r.MeasureInto(arena, line, env)
	r.MeasureInto(arena, line, env)
	allocs := allocsPerRun(10, func() {
		r.MeasureInto(arena, line, env)
	})
	if allocs != 0 {
		t.Fatalf("warm MeasureInto allocates %v times per run, want 0", allocs)
	}
}

// allocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin, which
// would hide any goroutine fan-out inside f: it warms f once, then counts
// the mallocs of runs further calls at the current GOMAXPROCS, truncating
// the average as AllocsPerRun does.
func allocsPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestMeasureDetachedFromPool proves Measure's result survives the arena
// being reused: retained measurements (the calibration-averaging pattern)
// must not be overwritten by later measurements.
func TestMeasureDetachedFromPool(t *testing.T) {
	cfg := DefaultConfig()
	line, r := testRig(t, 11, cfg)
	env := txline.RoomTemperature()
	first := r.Measure(line, env)
	snapshot := append([]float64(nil), first.IIP.Samples...)
	for i := 0; i < 3; i++ {
		r.Measure(line, env)
	}
	for i, v := range snapshot {
		if first.IIP.Samples[i] != v {
			t.Fatalf("bin %d of a retained measurement changed: %v -> %v", i, v, first.IIP.Samples[i])
		}
	}
}

// TestSharedInverseTableReuse proves two instruments of the same
// configuration share promoted tables (the fleet-memory bound), and that a
// differently configured instrument does not.
func TestSharedInverseTableReuse(t *testing.T) {
	cfg := DefaultConfig()
	apc := NewAPC(cfg.ComparatorNoise, cfg.ComparatorOffset)
	refs := []float64{-0.01, -0.005, 0, 0.005, 0.01}
	a := apc.NewInverter(refs)
	b := apc.NewInverter(refs)
	a.Promote()
	b.Promote()
	if a.table != b.table {
		t.Fatal("identically configured inverters did not share a promoted table")
	}
	other := NewAPC(cfg.ComparatorNoise*2, cfg.ComparatorOffset).NewInverter(refs)
	other.Promote()
	if other.table == a.table {
		t.Fatal("differently configured inverters share a table")
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if a.Estimate(p, 25) != b.Estimate(p, 25) {
			t.Fatalf("shared-table estimates diverge at p=%v", p)
		}
	}
}

// TestArenaServesMultipleInstruments proves a pooled arena can hop between
// reflectometers without contaminating results: interleaving two instruments
// through one arena matches running each with its own.
func TestArenaServesMultipleInstruments(t *testing.T) {
	cfg := DefaultConfig()
	mk := func() (*txline.Line, *Reflectometer, *txline.Line, *Reflectometer) {
		s := rng.New(77)
		lineA := txline.New("A", txline.DefaultConfig(), s.Child("line-a"))
		lineB := txline.New("B", txline.DefaultConfig(), s.Child("line-b"))
		ra := MustNew(cfg, txline.DefaultProbe(), nil, s.Child("itdr-a"))
		rb := MustNew(cfg, txline.DefaultProbe(), nil, s.Child("itdr-b"))
		return lineA, ra, lineB, rb
	}
	env := txline.RoomTemperature()

	la1, ra1, lb1, rb1 := mk()
	shared := NewArena()
	var interleaved [][]float64
	for i := 0; i < 2; i++ {
		ma := ra1.MeasureInto(shared, la1, env)
		interleaved = append(interleaved, append([]float64(nil), ma.IIP.Samples...))
		mb := rb1.MeasureInto(shared, lb1, env)
		interleaved = append(interleaved, append([]float64(nil), mb.IIP.Samples...))
	}

	la2, ra2, lb2, rb2 := mk()
	arenaA, arenaB := NewArena(), NewArena()
	var separate [][]float64
	for i := 0; i < 2; i++ {
		ma := ra2.MeasureInto(arenaA, la2, env)
		separate = append(separate, append([]float64(nil), ma.IIP.Samples...))
		mb := rb2.MeasureInto(arenaB, lb2, env)
		separate = append(separate, append([]float64(nil), mb.IIP.Samples...))
	}

	for k := range interleaved {
		for i := range interleaved[k] {
			if interleaved[k][i] != separate[k][i] {
				t.Fatalf("measurement %d bin %d: shared-arena %v != private-arena %v",
					k, i, interleaved[k][i], separate[k][i])
			}
		}
	}
}
