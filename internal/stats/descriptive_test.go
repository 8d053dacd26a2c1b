package stats

import (
	"testing"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty slice should give zero statistics")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
}
