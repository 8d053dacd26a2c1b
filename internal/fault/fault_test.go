package fault

import (
	"math"
	"testing"

	"divot/internal/itdr"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/txline"
)

// rig builds a line and an instrument from one seed, with an optional plane
// attached.
func rig(t *testing.T, seed uint64, faults ...Fault) (*txline.Line, *itdr.Reflectometer, *Plane) {
	t.Helper()
	stream := rng.New(seed)
	line := txline.New("L", txline.DefaultConfig(), stream.Child("line"))
	r, err := itdr.New(itdr.DefaultConfig(), txline.DefaultProbe(), nil, stream.Child("itdr"))
	if err != nil {
		t.Fatal(err)
	}
	var p *Plane
	if len(faults) > 0 {
		p = NewPlane(stream.Child("faults"), faults...)
		r.SetInjector(p)
	}
	return line, r, p
}

func env() txline.Environment { return txline.Environment{TempC: 23} }

// rmsDiff compares waveforms after the pipeline's bandwidth-matched
// smoothing, so counting noise does not drown systematic fault signatures.
func rmsDiff(a, b *signal.Waveform) float64 {
	as, bs := signal.GaussianSmooth(a, 4), signal.GaussianSmooth(b, 4)
	var acc float64
	for i := range as.Samples {
		d := as.Samples[i] - bs.Samples[i]
		acc += d * d
	}
	return math.Sqrt(acc / float64(as.Len()))
}

func TestScheduleModes(t *testing.T) {
	st := rng.New(1).Child("s")
	one := Once(5)
	for seq := uint64(1); seq <= 10; seq++ {
		if got := one.active(st, seq); got != (seq == 5) {
			t.Errorf("one-shot at seq %d: active=%v", seq, got)
		}
	}
	perm := From(4)
	for seq := uint64(1); seq <= 10; seq++ {
		if got := perm.active(st, seq); got != (seq >= 4) {
			t.Errorf("permanent at seq %d: active=%v", seq, got)
		}
	}
	duty := Duty(1, 0.5)
	on := 0
	for seq := uint64(1); seq <= 1000; seq++ {
		if duty.active(st, seq) {
			on++
		}
	}
	if on < 400 || on > 600 {
		t.Errorf("50%% duty active on %d/1000 measurements", on)
	}
	// Activation at a given seq is a pure function of identity, not of how
	// often the schedule has been consulted.
	for seq := uint64(1); seq <= 20; seq++ {
		a := duty.active(st, seq)
		for k := 0; k < 3; k++ {
			if duty.active(st, seq) != a {
				t.Fatalf("duty activation at seq %d not stable", seq)
			}
		}
	}
}

// TestHealthyPathUnchanged pins the core guarantee: attaching a plane whose
// faults never fire leaves every measurement bit-identical to an instrument
// without the hook.
func TestHealthyPathUnchanged(t *testing.T) {
	lineA, rA, _ := rig(t, 7)
	lineB, rB, _ := rig(t, 7, StuckComparator(true, Once(1_000_000)))
	for i := 0; i < 3; i++ {
		ma := rA.Measure(lineA, env())
		mb := rB.Measure(lineB, env())
		for j := range ma.IIP.Samples {
			if ma.IIP.Samples[j] != mb.IIP.Samples[j] {
				t.Fatalf("measurement %d bin %d differs with inactive plane", i, j)
			}
		}
	}
}

// TestFaultDeterminism pins bit-reproducibility: the same seed yields the
// same faulted measurements.
func TestFaultDeterminism(t *testing.T) {
	faults := []Fault{
		OffsetStep(0.2e-3, 10e-6, From(2)),
		DeadBinField(0.08, From(1)),
		CounterUpset(3, 0.3, Duty(1, 0.5)),
		EMIGlitch(0.02, Duty(1, 0.3)),
	}
	lineA, rA, pA := rig(t, 11, faults...)
	lineB, rB, pB := rig(t, 11, faults...)
	for i := 0; i < 4; i++ {
		ma := rA.Measure(lineA, env())
		mb := rB.Measure(lineB, env())
		for j := range ma.IIP.Samples {
			if ma.IIP.Samples[j] != mb.IIP.Samples[j] {
				t.Fatalf("measurement %d bin %d: %v != %v",
					i, j, ma.IIP.Samples[j], mb.IIP.Samples[j])
			}
			if ma.Saturated[j] != mb.Saturated[j] {
				t.Fatalf("measurement %d bin %d saturation differs", i, j)
			}
		}
	}
	if pA.Activations != pB.Activations {
		t.Errorf("activation counts differ: %d vs %d", pA.Activations, pB.Activations)
	}
	if pA.Activations == 0 {
		t.Error("no activations recorded")
	}
}

func TestStuckComparatorSaturatesEverything(t *testing.T) {
	line, r, _ := rig(t, 3, StuckComparator(true, Once(2)))
	clean := r.Measure(line, env())
	stuck := r.Measure(line, env())
	for m, s := range stuck.Saturated {
		if !s {
			t.Fatalf("bin %d not saturated under stuck-high comparator", m)
		}
	}
	sat := 0
	for _, s := range clean.Saturated {
		if s {
			sat++
		}
	}
	if sat > len(clean.Saturated)/10 {
		t.Errorf("healthy measurement saturates %d/%d bins", sat, len(clean.Saturated))
	}
	after := r.Measure(line, env())
	floor := rmsDiff(clean.IIP, r.Measure(line, env()).IIP)
	if d := rmsDiff(clean.IIP, after.IIP); d > 3*floor {
		t.Errorf("one-shot fault left residue: RMS diff %v vs noise floor %v", d, floor)
	}
}

func TestDeadBinsPegLow(t *testing.T) {
	want := []int{10, 50, 51, 200}
	line, r, _ := rig(t, 4, DeadBinList(want, From(1)))
	m := r.Measure(line, env())
	for _, b := range want {
		if !m.Saturated[b] {
			t.Errorf("dead bin %d not saturated", b)
		}
	}
	sat := 0
	for _, s := range m.Saturated {
		if s {
			sat++
		}
	}
	if sat != len(want) {
		t.Errorf("saturated %d bins, want %d", sat, len(want))
	}
}

func TestDeadBinFieldFractionStable(t *testing.T) {
	line, r, _ := rig(t, 5, DeadBinField(0.10, From(1)))
	first := r.Measure(line, env())
	second := r.Measure(line, env())
	n := 0
	for m := range first.Saturated {
		if first.Saturated[m] {
			n++
		}
		if first.Saturated[m] != second.Saturated[m] {
			t.Fatalf("dead-bin set not stable at bin %d", m)
		}
	}
	bins := len(first.Saturated)
	if n < bins/20 || n > bins/5 {
		t.Errorf("10%% dead-bin field killed %d/%d bins", n, bins)
	}
}

func TestOffsetAndSigmaDriftGrow(t *testing.T) {
	// A drifting offset biases the reconstruction; the bias must grow with
	// the measurement count.
	line, r, _ := rig(t, 6)
	ref := r.Measure(line, env())
	lineF, rF, _ := rig(t, 6, OffsetStep(0, 0.1e-3, From(2)), NoiseDrift(0, 0.02, From(2)))
	if d := rmsDiff(ref.IIP, rF.Measure(lineF, env()).IIP); d > 1e-4 {
		t.Fatalf("first measurement already distorted: %v", d)
	}
	early := rF.Measure(lineF, env())
	for i := 0; i < 20; i++ {
		rF.Measure(lineF, env())
	}
	late := rF.Measure(lineF, env())
	dEarly := rmsDiff(ref.IIP, early.IIP)
	dLate := rmsDiff(ref.IIP, late.IIP)
	if dLate < 2*dEarly {
		t.Errorf("drift did not grow: early RMS %v, late RMS %v", dEarly, dLate)
	}
}

func TestTransientGlitchesDistort(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
	}{
		{"phase-step", PhaseGlitch(120e-12, Once(2))},
		{"emi-burst", EMIGlitch(0.05, Once(2))},
		{"temp-step", TempGlitch(60, Once(2))},
		{"jitter-burst", JitterBurst(200e-12, Once(2))},
		{"counter-flip", CounterUpset(3, 1, Once(2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			line, r, _ := rig(t, 8, tc.fault)
			clean := r.Measure(line, env())
			faulted := r.Measure(line, env())
			noise := rmsDiff(clean.IIP, r.Measure(line, env()).IIP)
			hit := rmsDiff(clean.IIP, faulted.IIP)
			if hit < 2*noise {
				t.Errorf("fault barely visible: RMS %v vs noise floor %v", hit, noise)
			}
		})
	}
}
