package itdr

import (
	"math"
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
