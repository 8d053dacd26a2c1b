package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"divot/internal/attack"
	"divot/internal/rng"
	"divot/internal/txline"
)

// TestSpotCheckAlertsAreCPUSide checks that a spot check reports the CPU
// endpoint's view only: a swapped module raises CPU-side alerts, and a
// module moved onto an attacker's bus — a fault only the module endpoint
// could see — raises none.
func TestSpotCheckAlertsAreCPUSide(t *testing.T) {
	l := calibrated(t, 4)
	spot := func(checks int) (raised int) {
		for range checks {
			alerts, err := l.SpotCheck()
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alerts {
				if a.Side != SideCPU {
					t.Fatalf("spot check returned a %s-side alert: %v", a.Side, a)
				}
			}
			raised += len(alerts)
		}
		return raised
	}
	swap := attack.NewModuleSwap(txline.DefaultConfig(), rng.New(5))
	swap.Apply(l.Line)
	if spot(5) == 0 {
		t.Fatal("swapped module raised no CPU-side alert in 5 spot checks")
	}
	swap.Remove(l.Line)

	cb := attack.NewColdBootSwap(txline.DefaultConfig(), rng.New(7))
	l.Module.SetObservedLine(cb.BusSeenByModule())
	spot(5)
}

// TestSpotCheckRequiresBothEnrollments checks that losing either endpoint's
// enrollment fails the spot check with ErrEnrollmentLost naming that side,
// before any capture is taken.
func TestSpotCheckRequiresBothEnrollments(t *testing.T) {
	for _, side := range []Side{SideCPU, SideModule} {
		l := calibrated(t, 8)
		lost := l.CPU
		if side == SideModule {
			lost = l.Module
		}
		lost.store.Forget(enrollKey)
		seq := l.CPU.refl.Seq()
		alerts, err := l.SpotCheck()
		if !errors.Is(err, ErrEnrollmentLost) {
			t.Fatalf("%s enrollment lost: err = %v, want ErrEnrollmentLost", side, err)
		}
		if !strings.Contains(err.Error(), side.String()+" endpoint") {
			t.Errorf("%s enrollment lost: error %q does not name the side", side, err)
		}
		if len(alerts) != 0 {
			t.Errorf("%s enrollment lost: spot check returned alerts %v", side, alerts)
		}
		if got := l.CPU.refl.Seq(); got != seq {
			t.Errorf("%s enrollment lost: CPU instrument advanced %d captures", side, got-seq)
		}
	}
}

// TestSpotCheckLeavesModuleUnmeasured checks that spot checks consume no
// module-side capture: after k of them, the module endpoint's next IIP is
// bit-identical to that of a same-seed twin link that made none.
func TestSpotCheckLeavesModuleUnmeasured(t *testing.T) {
	const k = 4
	checked, twin := calibrated(t, 12), calibrated(t, 12)
	cpuSeq, modSeq := checked.CPU.refl.Seq(), checked.Module.refl.Seq()
	for range k {
		if _, err := checked.SpotCheck(); err != nil {
			t.Fatal(err)
		}
	}
	if got := checked.CPU.refl.Seq() - cpuSeq; got != k {
		t.Errorf("CPU instrument took %d captures over %d spot checks, want %d", got, k, k)
	}
	if got := checked.Module.refl.Seq(); got != modSeq {
		t.Errorf("module instrument took %d captures during spot checks, want 0", got-modSeq)
	}
	got := checked.Module.refl.Measure(checked.Module.observed, checked.Env).IIP.Samples
	want := twin.Module.refl.Measure(twin.Module.observed, twin.Env).IIP.Samples
	if len(got) != len(want) {
		t.Fatalf("module IIP has %d samples, twin %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("module IIP sample %d = %v after spot checks, twin %v", i, got[i], want[i])
		}
	}
}
