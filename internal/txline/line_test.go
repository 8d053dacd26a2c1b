package txline

import (
	"math"
	"testing"

	"divot/internal/rng"
)

func testLine(id string, seed uint64) *Line {
	return New(id, DefaultConfig(), rng.New(seed))
}

func TestNewDeterministic(t *testing.T) {
	a := testLine("L", 1)
	b := testLine("L", 1)
	for i := 0; i < len(a.baseZ); i++ {
		if a.baseZ[i] != b.baseZ[i] {
			t.Fatal("same seed should reproduce the same IIP")
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := testLine("L", 1)
	b := testLine("L", 2)
	same := 0
	for i := 0; i < len(a.baseZ); i++ {
		if a.baseZ[i] == b.baseZ[i] {
			same++
		}
	}
	if same > len(a.baseZ)/10 {
		t.Errorf("%d/%d identical segments across seeds", same, len(a.baseZ))
	}
}

func TestProfileContrast(t *testing.T) {
	l := testLine("L", 3)
	cfg := l.Config()
	var ss float64
	for _, z := range l.baseZ {
		d := (z - cfg.Z0) / cfg.Z0
		ss += d * d
	}
	rms := math.Sqrt(ss / float64(len(l.baseZ)))
	if math.Abs(rms-cfg.ContrastRMS)/cfg.ContrastRMS > 0.05 {
		t.Errorf("profile RMS contrast = %v, want ~%v", rms, cfg.ContrastRMS)
	}
}

func TestSegmentsAndGeometry(t *testing.T) {
	l := testLine("L", 4)
	cfg := l.Config()
	want := int(math.Round(cfg.Length / cfg.SegmentLength))
	if len(l.baseZ) != want {
		t.Errorf("Segments = %d, want %d", len(l.baseZ), want)
	}
	rt := l.RoundTripTime()
	if math.Abs(rt-2*0.25/1.5e8) > 1e-15 {
		t.Errorf("RoundTripTime = %v", rt)
	}
	if got := l.PositionToTime(0.1); math.Abs(got-2*0.1/1.5e8) > 1e-15 {
		t.Errorf("PositionToTime(0.1) = %v", got)
	}
}

func TestTermination(t *testing.T) {
	l := testLine("L", 5)
	cfg := DefaultConfig()
	// The termination is a per-chip draw around the nominal value.
	if d := math.Abs(l.Termination() - cfg.TerminationZ); d > 6*cfg.TerminationSpreadRMS {
		t.Errorf("initial termination %v implausibly far from nominal %v", l.Termination(), cfg.TerminationZ)
	}
	l.SetTermination(75)
	if l.Termination() != 75 {
		t.Errorf("termination after set = %v", l.Termination())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive termination")
		}
	}()
	l.SetTermination(0)
}

func TestPerturbationLifecycle(t *testing.T) {
	l := testLine("L", 6)
	p := Perturbation{Position: 0.1, Extent: 2e-3, DeltaZ: -10}
	l.ApplyPerturbation("tap", p)
	if _, ok := l.perturb["tap"]; !ok {
		t.Error("perturbation not recorded")
	}
	z, _ := l.effectiveProfileInto(nil, 0)
	seg := int(0.1 / l.Config().SegmentLength)
	if math.Abs(z[seg]-(l.baseZ[seg]-10)) > 1e-9 {
		t.Errorf("perturbed segment %d = %v, want %v", seg, z[seg], l.baseZ[seg]-10)
	}
	l.RemovePerturbation("tap")
	if _, ok := l.perturb["tap"]; ok {
		t.Error("perturbation not removed")
	}
	l.RemovePerturbation("never-there") // must be a no-op
}

func TestPerturbationOutOfRangePanics(t *testing.T) {
	l := testLine("L", 7)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range position")
		}
	}()
	l.ApplyPerturbation("bad", Perturbation{Position: 1.0})
}

func TestTemperatureCommonModeDominates(t *testing.T) {
	l := testLine("L", 8)
	z0, _ := l.effectiveProfileInto(nil, 0)
	z50, _ := l.effectiveProfileInto(nil, 50)
	cfg := l.Config()
	wantScale := 1 + cfg.TempCoeffCommon*50
	for i := range z0 {
		ratio := z50[i] / z0[i]
		// Common-mode scaling within the small differential drift budget.
		if math.Abs(ratio-wantScale) > 50*cfg.TempCoeffDiffRMS*5 {
			t.Fatalf("segment %d thermal ratio %v, want ~%v", i, ratio, wantScale)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := DefaultConfig()
	bad.Length = 0
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero length")
		}
	}()
	New("x", bad, rng.New(1))
}
