package baseline

import (
	"testing"

	"divot/internal/attack"
	"divot/internal/rng"
	"divot/internal/txline"
)

func newLine(seed uint64) *txline.Line {
	return txline.New("L", txline.DefaultConfig(), rng.New(seed))
}

func allDetectors() []Detector {
	return []Detector{NewPAD(), NewDCResistance(), NewVNAPUF(), NewADCTDR(rng.New(99))}
}

func TestCleanLineNotFlagged(t *testing.T) {
	for _, d := range allDetectors() {
		l := newLine(1)
		d.Calibrate(l)
		if d.Detect(l) {
			t.Errorf("%s: clean line flagged", d.Name())
		}
	}
}

func TestPADDetectsContactProbesOnly(t *testing.T) {
	pad := NewPAD()

	l := newLine(2)
	pad.Calibrate(l)
	tap := attack.DefaultWireTap(0.1)
	tap.Apply(l)
	if !pad.Detect(l) {
		t.Error("PAD should detect a capacitive wire tap")
	}

	l2 := newLine(3)
	pad.Calibrate(l2)
	probe := attack.DefaultMagneticProbe(0.1)
	probe.Apply(l2)
	if pad.Detect(l2) {
		t.Error("PAD (capacitance sensing) should miss an inductive EM probe")
	}
}

func TestPADDetectsLoadModification(t *testing.T) {
	pad := NewPAD()
	l := newLine(4)
	pad.Calibrate(l)
	l.SetTermination(l.Termination() + 10)
	if !pad.Detect(l) {
		t.Error("PAD should notice a replaced load chip")
	}
}

func TestDCResistanceDetectsMillingOnly(t *testing.T) {
	d := NewDCResistance()

	l := newLine(5)
	d.Calibrate(l)
	mill := attack.DefaultTraceMill(0.12)
	mill.Apply(l)
	if !d.Detect(l) {
		t.Error("DC monitor should detect trace milling")
	}

	l2 := newLine(6)
	d.Calibrate(l2)
	attack.DefaultWireTap(0.1).Apply(l2)
	attack.DefaultMagneticProbe(0.2).Apply(l2)
	if d.Detect(l2) {
		t.Error("DC monitor should miss shunt taps and EM probes")
	}
}

func TestVNAPUFDetectsEverything(t *testing.T) {
	for name, mount := range map[string]func(*txline.Line){
		"wire tap":       func(l *txline.Line) { attack.DefaultWireTap(0.1).Apply(l) },
		"magnetic probe": func(l *txline.Line) { attack.DefaultMagneticProbe(0.15).Apply(l) },
		"trace mill":     func(l *txline.Line) { attack.DefaultTraceMill(0.2).Apply(l) },
		"load mod":       func(l *txline.Line) { l.SetTermination(l.Termination() + 10) },
	} {
		v := NewVNAPUF()
		l := newLine(7)
		v.Calibrate(l)
		mount(l)
		if !v.Detect(l) {
			t.Errorf("VNA PUF should detect %s", name)
		}
	}
}

func TestVNAPUFDistinguishesLines(t *testing.T) {
	v := NewVNAPUF()
	v.Calibrate(newLine(8))
	if !v.Detect(newLine(9)) {
		t.Error("VNA PUF should reject a different line")
	}
}

func TestADCTDRDetectsAttacks(t *testing.T) {
	for name, mount := range map[string]func(*txline.Line){
		"wire tap": func(l *txline.Line) { attack.DefaultWireTap(0.1).Apply(l) },
		"load mod": func(l *txline.Line) { l.SetTermination(l.Termination() + 10) },
	} {
		a := NewADCTDR(rng.New(10))
		l := newLine(11)
		a.Calibrate(l)
		mount(l)
		if !a.Detect(l) {
			t.Errorf("ADC TDR should detect %s", name)
		}
	}
}

func TestADCTDRCostDwarfsITDR(t *testing.T) {
	a := NewADCTDR(rng.New(12))
	if a.GateCountEstimate() < 100000 {
		t.Errorf("ADC gate estimate %d suspiciously small", a.GateCountEstimate())
	}
}

func TestCapabilitiesMatchPaperComparison(t *testing.T) {
	// §V's qualitative claims, encoded: only DIVOT runs concurrently with
	// traffic; among the baselines, only the offline/bench approaches see
	// non-contact probes.
	for _, d := range allDetectors() {
		c := d.Capability()
		if c.Concurrent {
			t.Errorf("%s claims concurrent operation; no §V baseline can", d.Name())
		}
	}
	if NewPAD().Capability().DetectsNonContact {
		t.Error("PAD should not detect non-contact probes")
	}
	if !NewVNAPUF().Capability().DetectsNonContact {
		t.Error("VNA should detect non-contact probes")
	}
	if NewVNAPUF().Capability().Runtime {
		t.Error("VNA is not a runtime technique")
	}
	if NewVNAPUF().Capability().RelativeCost < 100 {
		t.Error("VNA cost should dwarf integrated logic")
	}
}

func TestTraceMillPermanent(t *testing.T) {
	l := newLine(13)
	mill := attack.DefaultTraceMill(0.1)
	if mill.Name() != "trace-mill" {
		t.Errorf("Name = %q", mill.Name())
	}
	mill.Apply(l)
	mill.Remove(l)
	if len(l.Perturbations()) == 0 {
		t.Error("milled trace should stay damaged")
	}
	if mill.DeltaR <= 0 {
		t.Error("milling should add resistance")
	}
}
