package signal

import (
	"math"
	"testing"
)

func TestStepEdgeLimits(t *testing.T) {
	w := StepEdge(1e12, 1000, 500e-12, 50e-12, 0.8)
	if got := w.Samples[0]; math.Abs(got) > 1e-6 {
		t.Errorf("edge start = %v, want ~0", got)
	}
	if got := w.Samples[999]; math.Abs(got-0.8) > 1e-6 {
		t.Errorf("edge end = %v, want ~0.8", got)
	}
	mid := w.At(500e-12)
	if math.Abs(mid-0.4) > 1e-3 {
		t.Errorf("edge midpoint = %v, want ~0.4", mid)
	}
}

func TestStepEdgeRiseTime(t *testing.T) {
	rise := 100e-12
	w := StepEdge(1e13, 20000, 1000e-12, rise, 1)
	var t10, t90 float64
	for i, v := range w.Samples {
		if t10 == 0 && v >= 0.1 {
			t10 = w.TimeOf(i)
		}
		if t90 == 0 && v >= 0.9 {
			t90 = w.TimeOf(i)
			break
		}
	}
	got := t90 - t10
	if math.Abs(got-rise)/rise > 0.05 {
		t.Errorf("10-90%% rise time = %v, want ~%v", got, rise)
	}
}
