package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"divot/internal/attack"
)

// TestMonitorAllMatchesSequential asserts the fleet fan-out contract: one
// MonitorAll round over a mixed fleet (clean links plus a tapped one) yields
// exactly the alerts a sequential MonitorOnce loop would, at every worker
// count. Links own disjoint instruments and streams, so concurrency cannot
// change the physics.
func TestMonitorAllMatchesSequential(t *testing.T) {
	build := func() []*Link {
		links := make([]*Link, 3)
		for i, seed := range []uint64{11, 12, 13} {
			links[i] = calibrated(t, seed)
		}
		// Tap the middle link so the round produces non-empty alerts too.
		attack.DefaultWireTap(0.1).Apply(links[1].Line)
		return links
	}

	seq := build()
	want := make([][]Alert, len(seq))
	for i, l := range seq {
		var err error
		want[i], err = l.MonitorOnce()
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, par := range []int{1, 4, 0} {
		got, err := monitorAll(build(), par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: MonitorAll alerts differ from sequential MonitorOnce\ngot  %+v\nwant %+v",
				par, got, want)
		}
	}

	if got, err := monitorAll(nil, 4); err != nil || len(got) != 0 {
		t.Fatalf("monitorAll(nil) = %+v, %v, want empty", got, err)
	}

	// An uncalibrated link in the fleet reports an error but does not stop
	// the other links' rounds.
	mixed := build()
	mixed = append(mixed, newLink(t, 14))
	got, err := monitorAll(mixed, 2)
	if !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated fleet member: err = %v, want ErrNotCalibrated", err)
	}
	if !reflect.DeepEqual(got[:3], want) {
		t.Error("calibrated links' rounds changed by a failing fleet member")
	}
}

// monitorAll runs MonitorAllCtx without cancellation.
func monitorAll(links []*Link, parallelism int) ([][]Alert, error) {
	out, _, err := MonitorAllCtx(context.Background(), links, parallelism)
	return out, err
}
