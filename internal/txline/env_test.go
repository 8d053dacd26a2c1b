package txline

import (
	"math"
	"testing"

	"divot/internal/rng"
)

func TestRoomTemperatureCondition(t *testing.T) {
	env := RoomTemperature()
	s := rng.New(1)
	for i := 0; i < 100; i++ {
		c := env.Sample(s)
		if math.Abs(c.DeltaT) > 2 {
			t.Fatalf("room-temperature deltaT %v too large", c.DeltaT)
		}
		if c.Stretch != 1 {
			t.Fatalf("unexpected stretch %v without vibration", c.Stretch)
		}
		if c.EMIAmplitude != 0 {
			t.Fatal("unexpected EMI at room conditions")
		}
	}
}

func TestOvenSwingCoversRange(t *testing.T) {
	env := OvenSwing()
	s := rng.New(2)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		c := env.Sample(s)
		temp := 23 + c.DeltaT
		lo = math.Min(lo, temp)
		hi = math.Max(hi, temp)
	}
	if lo > 25 || hi < 70 {
		t.Errorf("oven swing covered [%v, %v], want ~[23, 75]", lo, hi)
	}
}

func TestVibrationStretchDistribution(t *testing.T) {
	env := Vibration(1e-4)
	s := rng.New(3)
	var seen bool
	for i := 0; i < 500; i++ {
		c := env.Sample(s)
		if c.Stretch < 1-1e-4-1e-12 || c.Stretch > 1+1e-4+1e-12 {
			t.Fatalf("stretch %v outside strain envelope", c.Stretch)
		}
		if math.Abs(c.Stretch-1) > 5e-5 {
			seen = true
		}
	}
	if !seen {
		t.Error("vibration never produced appreciable strain")
	}
}

func TestEMICondition(t *testing.T) {
	env := EMI(0.01, 300e6)
	s := rng.New(4)
	c := env.Sample(s)
	if c.EMIAmplitude != 0.01 || c.EMIFreq != 300e6 {
		t.Errorf("EMI parameters not propagated: %+v", c)
	}
}

func TestEMIPhaseRandomized(t *testing.T) {
	env := EMI(0.01, 300e6)
	s := rng.New(5)
	a := env.Sample(s)
	b := env.Sample(s)
	if a.EMIPhase == b.EMIPhase {
		t.Error("EMI phase should differ across measurements")
	}
}

func TestCrosstalkEnvironment(t *testing.T) {
	env := Crosstalk(1e-3, 1.5e-9)
	c := env.Sample(rng.New(6))
	if c.CrosstalkAmplitude != 1e-3 || c.CrosstalkOffsetSec != 1.5e-9 {
		t.Errorf("crosstalk parameters not propagated: %+v", c)
	}
	// The bump peaks at its offset and is identical across conditions —
	// the synchronized property.
	peak := c.CrosstalkAt(1.5e-9)
	if math.Abs(peak-1e-3) > 1e-12 {
		t.Errorf("bump peak %v", peak)
	}
	if c.CrosstalkAt(0) > 1e-6 {
		t.Error("bump should be localized")
	}
	c2 := env.Sample(rng.New(7))
	if c2.CrosstalkAt(1.5e-9) != peak {
		t.Error("synchronized coupling must not vary across measurements")
	}
	if (Condition{}).CrosstalkAt(1e-9) != 0 {
		t.Error("zero condition should have no crosstalk")
	}
}
