package txline

import (
	"testing"

	"divot/internal/rng"
	"divot/internal/signal"
)

func cloneSim(t *testing.T, spec CloneSpec) float64 {
	t.Helper()
	victim := New("victim", DefaultConfig(), rng.New(60))
	clone := CloneLine(victim, spec, rng.New(61))
	probe := DefaultProbe()
	a := victim.Reflect(probe, 0, 1, testRate, testN)
	b := clone.Reflect(probe, 0, 1, testRate, testN)
	da := signal.Derivative(signal.GaussianSmooth(a, 4))
	db := signal.Derivative(signal.GaussianSmooth(b, 4))
	return signal.NormalizedInnerProduct(da, db)
}

func TestCloneBeatsRandomImpostor(t *testing.T) {
	// A clone with the stolen profile must correlate better than a random
	// line — otherwise the attacker model is vacuous.
	clone := cloneSim(t, capableClone())
	victim := New("victim", DefaultConfig(), rng.New(60))
	random := New("random", DefaultConfig(), rng.New(62))
	probe := DefaultProbe()
	a := victim.Reflect(probe, 0, 1, testRate, testN)
	b := random.Reflect(probe, 0, 1, testRate, testN)
	randomSim := signal.NormalizedInnerProduct(
		signal.Derivative(signal.GaussianSmooth(a, 4)),
		signal.Derivative(signal.GaussianSmooth(b, 4)))
	if clone <= randomSim {
		t.Errorf("clone similarity %v should beat random impostor %v", clone, randomSim)
	}
}

func TestCloneStillFallsShortOfGenuine(t *testing.T) {
	// The PUF claim: even a capable clone stays well below a genuine
	// re-measurement, because the sub-window randomness cannot be copied.
	sim := cloneSim(t, capableClone())
	if sim > 0.8 {
		t.Errorf("3 mm-resolution clone reached similarity %v; PUF margin too thin", sim)
	}
}

func TestCloneQualityImprovesWithResolution(t *testing.T) {
	coarse := cloneSim(t, CloneSpec{ControlResolution: 20e-3, ResidualContrastRMS: 0.01, MatchTermination: true})
	fine := cloneSim(t, CloneSpec{ControlResolution: 2e-3, ResidualContrastRMS: 0.01, MatchTermination: true})
	if fine <= coarse {
		t.Errorf("finer control (%v) should beat coarse (%v)", fine, coarse)
	}
}

func TestCloneResidualRandomnessHurts(t *testing.T) {
	quiet := cloneSim(t, CloneSpec{ControlResolution: 3e-3, ResidualContrastRMS: 0.002, MatchTermination: true})
	noisy := cloneSim(t, CloneSpec{ControlResolution: 3e-3, ResidualContrastRMS: 0.02, MatchTermination: true})
	if noisy >= quiet {
		t.Errorf("more residual randomness (%v) should hurt vs less (%v)", noisy, quiet)
	}
}

func TestClonePanicsOnBadResolution(t *testing.T) {
	victim := New("victim", DefaultConfig(), rng.New(63))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CloneLine(victim, CloneSpec{ControlResolution: 0}, rng.New(64))
}

func TestCloneMatchedTermination(t *testing.T) {
	victim := New("victim", DefaultConfig(), rng.New(65))
	matched := CloneLine(victim, capableClone(), rng.New(66))
	if matched.Termination() != victim.Termination() {
		t.Error("matched clone should copy the termination")
	}
	spec := capableClone()
	spec.MatchTermination = false
	unmatched := CloneLine(victim, spec, rng.New(67))
	if unmatched.Termination() == victim.Termination() {
		t.Error("unmatched clone should draw its own termination")
	}
}

// capableClone is a capable attacker: 3 mm control, victim-grade residual
// randomness, trimmed termination.
func capableClone() CloneSpec {
	return CloneSpec{
		ControlResolution:   3e-3,
		ResidualContrastRMS: 0.010,
		MatchTermination:    true,
	}
}
