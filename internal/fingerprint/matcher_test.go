package fingerprint

import (
	"math"
	"strings"
	"testing"
)

func TestMatcherAccepts(t *testing.T) {
	m := Matcher{Threshold: 0.9}
	p := Pipeline{}
	x := p.FromWaveform(waveOf(1, 2, 3, 2, 1))
	res := m.Authenticate(x, x)
	if !res.Accepted || res.Score < 0.999 {
		t.Errorf("self-auth = %+v", res)
	}
	if !strings.Contains(res.String(), "ACCEPT") {
		t.Errorf("String = %q", res.String())
	}
}

func TestMatcherRejects(t *testing.T) {
	m := Matcher{Threshold: 0.9}
	p := Pipeline{}
	x := p.FromWaveform(waveOf(1, 2, 3, 2, 1))
	y := p.FromWaveform(waveOf(3, -1, 4, -1, 5))
	res := m.Authenticate(x, y)
	if res.Accepted {
		t.Errorf("dissimilar fingerprints accepted: %+v", res)
	}
	if !strings.Contains(res.String(), "REJECT") {
		t.Errorf("String = %q", res.String())
	}
}

func TestTamperDetector(t *testing.T) {
	d := TamperDetector{PeakThreshold: 1e-4, Velocity: 1.5e8}
	p := Pipeline{}
	ref := p.FromWaveform(waveOf(0, 0, 0, 0, 0, 0, 0, 0))
	clean := p.FromWaveform(waveOf(1e-3, -1e-3, 1e-3, 0, 0, -1e-3, 0, 1e-3))
	v := d.Check(clean, ref)
	if v.Tampered {
		t.Errorf("noise flagged as tamper: %+v", v)
	}
	if !strings.Contains(v.String(), "clean") {
		t.Errorf("String = %q", v.String())
	}

	tampered := p.FromWaveform(waveOf(0, 0, 0, 0, 0.05, 0, 0, 0))
	v = d.Check(tampered, ref)
	if !v.Tampered {
		t.Fatalf("tamper missed: %+v", v)
	}
	wantPos := (4.0 / 89.6e9) * 1.5e8 / 2
	if math.Abs(v.Position-wantPos) > 1e-9 {
		t.Errorf("localized at %v, want %v", v.Position, wantPos)
	}
	if !strings.Contains(v.String(), "TAMPER") {
		t.Errorf("String = %q", v.String())
	}
}

func TestFuseSimilarities(t *testing.T) {
	if got := FuseSimilarities([]float64{1, 1, 1}); got != 1 {
		t.Errorf("fuse of ones = %v", got)
	}
	if got := FuseSimilarities([]float64{0.5, 0.9}); math.Abs(got-math.Sqrt(0.45)) > 1e-12 {
		t.Errorf("geometric mean = %v", got)
	}
	if got := FuseSimilarities([]float64{0.9, 0}); got != 0 {
		t.Errorf("zero wire should zero the fused score, got %v", got)
	}
}

func TestFusePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FuseSimilarities(nil)
}
