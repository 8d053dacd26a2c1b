package fingerprint

import (
	"math"
	"testing"

	"divot/internal/signal"
	"divot/internal/txline"
)

func TestAlignRecoversKnownStretch(t *testing.T) {
	// Build a genuine measurement pair where the probe waveform is
	// stretched by a known factor; alignment must find it and restore the
	// similarity.
	rg := newRig(t, 400)
	env := txline.Environment{TempC: 23}
	ref := rg.enroll(t, env, 8)

	const trueStretch = 1.004
	// Average a few captures before stretching: stretch estimation is
	// noise-limited (see TestAlignNoopOnUnstretched — the similarity
	// surface is flat within a few tenths of a percent), so a single noisy
	// capture is not a fair input for a ±0.001 recovery bound.
	w := rg.r.Measure(rg.line, env).IIP
	for i := 1; i < 4; i++ {
		signal.AddInPlace(w, rg.r.Measure(rg.line, env).IIP)
	}
	w = signal.Scale(w, 0.25)
	stretched := rg.p.FromWaveform(signal.Stretch(w, trueStretch))

	plain := Similarity(stretched, ref)
	a := AlignStretch(stretched, ref, 0.01, rg.p)
	if a.Score <= plain {
		t.Fatalf("alignment did not improve similarity: %v vs %v", a.Score, plain)
	}
	if math.Abs(a.Stretch-trueStretch) > 0.001 {
		t.Errorf("estimated stretch %v, want ~%v", a.Stretch, trueStretch)
	}
	if a.Score < 0.9 {
		t.Errorf("aligned similarity %v still low", a.Score)
	}
}

func TestAlignNoopOnUnstretched(t *testing.T) {
	rg := newRig(t, 401)
	env := txline.Environment{TempC: 23}
	ref := rg.enroll(t, env, 8)
	m := rg.measure(env)
	a := AlignStretch(m, ref, 0.01, rg.p)
	// Estimation precision is noise-limited: the similarity surface is
	// flat within a few tenths of a percent of stretch.
	if math.Abs(a.Stretch-1) > 0.004 {
		t.Errorf("clean measurement estimated stretch %v, want ~1", a.Stretch)
	}
	if a.Score < Similarity(m, ref)-1e-9 {
		t.Error("alignment made a clean match worse")
	}
}

func TestAlignDoesNotRescueImpostors(t *testing.T) {
	// Stretch search must not let a different line masquerade as genuine:
	// the impostor's profile cannot be aligned into a match.
	a := newRig(t, 402)
	b := newRig(t, 403)
	env := txline.Environment{TempC: 23}
	refA := a.enroll(t, env, 8)
	mB := b.measure(env)
	res := AlignStretch(mB, refA, 0.01, b.p)
	if res.Score > 0.7 {
		t.Errorf("impostor aligned to %v; stretch search must not forge matches", res.Score)
	}
}

func TestAlignInvalidInputs(t *testing.T) {
	rg := newRig(t, 404)
	env := txline.Environment{TempC: 23}
	m := rg.measure(env)
	a := AlignStretch(m, IIP{}, 0.01, rg.p)
	if a.Score != 0 || a.Stretch != 1 {
		t.Errorf("invalid ref: %+v", a)
	}
	a = AlignStretch(m, m, 0, rg.p)
	if a.Stretch != 1 {
		t.Errorf("zero strain budget should skip the search: %+v", a)
	}
}

func TestAuthenticateAligned(t *testing.T) {
	rg := newRig(t, 405)
	// Enroll at room; authenticate under a strong thermal condition that
	// would fail a plain threshold but passes after alignment.
	ref := rg.enroll(t, txline.Environment{TempC: 23}, 8)
	hot := txline.Environment{TempC: 75}
	m := rg.measure(hot)
	matcher := Matcher{Threshold: 0.9}
	plain := matcher.Authenticate(m, ref)
	a := AlignStretch(m, ref, 0.05, rg.p)
	if a.Score <= plain.Score {
		t.Fatalf("aligned %v should beat plain %v at 75°C", a.Score, plain.Score)
	}
	if a.Score < matcher.Threshold {
		t.Errorf("aligned score at 75°C %v below threshold %v", a.Score, matcher.Threshold)
	}
	if a.Stretch <= 1 {
		t.Errorf("estimated stretch %v should exceed 1 at +52°C", a.Stretch)
	}
}
