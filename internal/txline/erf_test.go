package txline

import (
	"math"
	"testing"
)

// TestErfTabAccuracy sweeps erfTab against math.Erf on a dense grid over
// [−4.5, 4.5]: inside the table the error must stay within the Hermite
// bound, and outside it erfTab must return math.Erf's value exactly.
func TestErfTabAccuracy(t *testing.T) {
	const (
		points = 1_000_001
		lo, hi = -4.5, 4.5
		bound  = 2e-13
	)
	worst, worstX := 0.0, 0.0
	for i := range points {
		x := lo + (hi-lo)*float64(i)/(points-1)
		got, want := erfTab(x), math.Erf(x)
		if math.Abs(x) >= erfTableMax {
			if got != want {
				t.Fatalf("erfTab(%v) = %v outside the table, want math.Erf's %v", x, got, want)
			}
			continue
		}
		if d := math.Abs(got - want); d > worst {
			worst, worstX = d, x
		}
	}
	if worst > bound {
		t.Errorf("max |erfTab − erf| = %g at x = %v, want ≤ %g", worst, worstX, bound)
	}
	t.Logf("max |erfTab − erf| = %.3g at x = %v", worst, worstX)
}

// TestErfTabSpecialValues covers the table's edges and IEEE special values.
func TestErfTabSpecialValues(t *testing.T) {
	if v := erfTab(math.NaN()); !math.IsNaN(v) {
		t.Errorf("erfTab(NaN) = %v, want NaN", v)
	}
	if v := erfTab(math.Inf(1)); v != 1 {
		t.Errorf("erfTab(+Inf) = %v, want 1", v)
	}
	if v := erfTab(math.Inf(-1)); v != -1 {
		t.Errorf("erfTab(-Inf) = %v, want -1", v)
	}
	if v := erfTab(0); v != 0 || math.Signbit(v) {
		t.Errorf("erfTab(+0) = %v, want +0", v)
	}
	if v := erfTab(math.Copysign(0, -1)); v != 0 || !math.Signbit(v) {
		t.Errorf("erfTab(-0) = %v, want -0", v)
	}
	for _, x := range []float64{
		erfTableMax, -erfTableMax,
		math.Nextafter(erfTableMax, 5), math.Nextafter(-erfTableMax, -5),
		6, -6, 1e300, -1e300,
	} {
		if got, want := erfTab(x), math.Erf(x); got != want {
			t.Errorf("erfTab(%v) = %v, want math.Erf's %v", x, got, want)
		}
	}
	// The largest argument the table serves stays in range and accurate.
	x := math.Nextafter(erfTableMax, 0)
	if d := math.Abs(erfTab(x) - math.Erf(x)); d > 2e-13 {
		t.Errorf("erfTab(%v) off by %g", x, d)
	}
}
