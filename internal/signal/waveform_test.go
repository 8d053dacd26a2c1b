package signal

import (
	"testing"
)

func TestNewAndAccessors(t *testing.T) {
	w := New(1e9, 100)
	if w.Len() != 100 {
		t.Errorf("Len = %d", w.Len())
	}
	if w.Duration() != 100e-9 {
		t.Errorf("Duration = %v", w.Duration())
	}
	if w.TimeOf(10) != 10e-9 {
		t.Errorf("TimeOf(10) = %v", w.TimeOf(10))
	}
}

func TestAtInterpolates(t *testing.T) {
	w := FromSamples(1, []float64{0, 10, 20})
	if got := w.At(0.5); got != 5 {
		t.Errorf("At(0.5) = %v, want 5", got)
	}
	if got := w.At(1.25); got != 12.5 {
		t.Errorf("At(1.25) = %v, want 12.5", got)
	}
}

func TestAtEdgeHold(t *testing.T) {
	w := FromSamples(1, []float64{3, 4, 5})
	if got := w.At(-10); got != 3 {
		t.Errorf("At before start = %v, want 3", got)
	}
	if got := w.At(100); got != 5 {
		t.Errorf("At past end = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	w := FromSamples(1, []float64{1, 2})
	c := w.Clone()
	c.Samples[0] = 99
	if w.Samples[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSliceSharesStorage(t *testing.T) {
	w := FromSamples(1, []float64{1, 2, 3, 4})
	s := w.Slice(1, 3)
	if s.Len() != 2 || s.Samples[0] != 2 {
		t.Fatalf("Slice = %v", s.Samples)
	}
	s.Samples[0] = 99
	if w.Samples[1] != 99 {
		t.Error("Slice should share storage")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero rate":  func() { New(0, 1) },
		"neg length": func() { New(1, -1) },
		"bad wrap":   func() { FromSamples(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
