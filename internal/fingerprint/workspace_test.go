package fingerprint

import (
	"math"
	"testing"

	"divot/internal/signal"
)

func noisyWave(n int, phase float64) *signal.Waveform {
	w := signal.New(89.6e9, n)
	for i := range w.Samples {
		w.Samples[i] = 0.01*math.Sin(float64(i)*0.11+phase) + 0.002*math.Cos(float64(i)*0.71)
	}
	return w
}

// TestWorkspaceMatchesAllocatingPipeline proves the workspace-backed scoring
// path is bit-identical to the allocating one — masked and unmasked, across
// repeated reuse of the same workspace.
func TestWorkspaceMatchesAllocatingPipeline(t *testing.T) {
	p := DefaultPipeline()
	d := TamperDetector{PeakThreshold: 1e-9, Velocity: 1.5e8}
	mt := Matcher{Threshold: 0.7}
	enrolled := p.FromWaveform(noisyWave(343, 0))

	mask := NewBinMask(343)
	mask[40], mask[41], mask[120] = true, true, true

	ws := &Workspace{}
	for round := 0; round < 3; round++ {
		w := noisyWave(343, float64(round))
		for _, m := range []BinMask{nil, mask} {
			want := p.FromWaveformMasked(w, m)
			got := p.FromWaveformMaskedWith(ws, w, m)
			for i := range want.Raw.Samples {
				if got.Raw.Samples[i] != want.Raw.Samples[i] {
					t.Fatalf("round %d raw bin %d: with-workspace %v != allocating %v",
						round, i, got.Raw.Samples[i], want.Raw.Samples[i])
				}
			}
			scoring := m.Dilate(2)
			wantAuth := mt.AuthenticateMasked(want, enrolled, scoring)
			gotAuth := mt.AuthenticateMasked(got, enrolled, scoring)
			if wantAuth != gotAuth {
				t.Fatalf("round %d: auth mismatch %+v vs %+v", round, gotAuth, wantAuth)
			}
			wantV := d.CheckMaskedWith(nil, want, enrolled, scoring)
			gotV := d.CheckMaskedWith(ws, got, enrolled, scoring)
			if wantV != gotV {
				t.Fatalf("round %d: verdict mismatch %+v vs %+v", round, gotV, wantV)
			}
		}
	}
}

// TestWorkspaceAllocationFree proves the warm unmasked scoring path — the
// healthy steady state — allocates nothing.
func TestWorkspaceAllocationFree(t *testing.T) {
	p := DefaultPipeline()
	d := TamperDetector{PeakThreshold: 1e-9, Velocity: 1.5e8}
	mt := Matcher{Threshold: 0.7}
	enrolled := p.FromWaveform(noisyWave(343, 0))
	w := noisyWave(343, 1)
	ws := &Workspace{}
	p.FromWaveformMaskedWith(ws, w, nil) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		f := p.FromWaveformMaskedWith(ws, w, nil)
		_ = mt.AuthenticateMasked(f, enrolled, nil)
		_ = d.CheckMaskedWith(ws, f, enrolled, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace scoring allocates %v times per run, want 0", allocs)
	}
}
