package signal

import (
	"math"
	"testing"
)

func TestStretchMovesFeaturesLater(t *testing.T) {
	w := New(100, 100)
	w.Samples[50] = 1
	// Interpolate so the feature is a smooth bump.
	for i := 45; i < 55; i++ {
		w.Samples[i] = 1 - math.Abs(float64(i-50))/5
	}
	st := Stretch(w, 1.1)
	pi, _ := PeakIndex(st)
	if pi <= 50 {
		t.Errorf("stretch by 1.1 should move peak later, got index %d", pi)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive stretch")
		}
	}()
	Stretch(w, 0)
}
