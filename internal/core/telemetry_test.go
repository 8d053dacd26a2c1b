package core

import (
	"fmt"
	"reflect"
	"testing"

	"divot/internal/attack"
	"divot/internal/rng"
	"divot/internal/telemetry"
	"divot/internal/txline"
)

// kinds extracts the event-kind sequence for a link/side filter ("" = all).
func kinds(evs []telemetry.Event, link, side string) []telemetry.EventKind {
	var out []telemetry.EventKind
	for _, ev := range evs {
		if (link == "" || ev.Link == link) && (side == "" || ev.Side == side) {
			out = append(out, ev.Kind)
		}
	}
	return out
}

func TestLinkEmitsRoundAndMeasurementEvents(t *testing.T) {
	l := newLink(t, 11)
	rec := &telemetry.Recorder{}
	l.SetSink(rec)
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	calEvents := rec.Len()
	// Calibration: EnrollMeasurements + tamperFloorProbes measurements per
	// endpoint, plus one calibrated event.
	perEndpoint := l.cfg.CalibrationMeasurements()
	if want := 2*perEndpoint + 1; calEvents != want {
		t.Fatalf("calibration emitted %d events, want %d", calEvents, want)
	}
	mustMonitor(t, l)
	evs := rec.Events()[calEvents:]
	got := kinds(evs, "", "")
	want := []telemetry.EventKind{
		telemetry.EventMeasurement, telemetry.EventRound, // cpu
		telemetry.EventMeasurement, telemetry.EventRound, // module
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clean round events = %v, want %v", got, want)
	}
	for _, ev := range evs {
		if ev.Link != "bus0" {
			t.Errorf("event %v has link %q, want bus0", ev.Kind, ev.Link)
		}
		if ev.Kind == telemetry.EventRound {
			// Measurement events carry the instrument's own sequence number;
			// round events carry the link round.
			if ev.Round != 1 {
				t.Errorf("round event has round %d, want 1", ev.Round)
			}
			if ev.To != "ok" {
				t.Errorf("clean round verdict %q, want ok", ev.To)
			}
		}
	}
}

func TestModuleSwapEmitsAlertGateAndHealthEvents(t *testing.T) {
	// A tight threshold makes the swapped module fail authentication (clean
	// rounds score ~0.98, the foreign line ~0.88), exercising the alert,
	// gate-transition and health-transition events of a confirmed failure.
	cfg := DefaultConfig()
	cfg.AuthThreshold = 0.95
	l, err := NewLink("bus0", cfg, txline.DefaultConfig(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	rec := &telemetry.Recorder{}
	l.SetSink(rec)
	swap := attack.NewModuleSwap(txline.DefaultConfig(), rng.New(5))
	swap.Apply(l.Line)
	if _, err := l.MonitorOnce(); err != nil {
		t.Fatal(err)
	}
	var sawAlert, sawGateClose, sawHealth bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case telemetry.EventAlert:
			if ev.Side == "cpu" && ev.To == "auth-failure" {
				sawAlert = true
			}
		case telemetry.EventGate:
			if ev.Side == "cpu" && ev.To == "closed" && ev.From == "open" {
				sawGateClose = true
			}
		case telemetry.EventHealth:
			if ev.Side == "cpu" && ev.From == "ok" && ev.To == "failed" {
				sawHealth = true
			}
		}
	}
	if !sawAlert || !sawGateClose || !sawHealth {
		t.Fatalf("swap round missed events: alert=%v gateClose=%v health=%v\n%v",
			sawAlert, sawGateClose, sawHealth, rec.Events())
	}
	// Restoration must re-open the gate and restore health, each as a
	// transition event.
	rec2 := &telemetry.Recorder{}
	l.SetSink(rec2)
	swap.Remove(l.Line)
	if _, err := l.MonitorOnce(); err != nil {
		t.Fatal(err)
	}
	var sawReopen, sawRecover bool
	for _, ev := range rec2.Events() {
		if ev.Kind == telemetry.EventGate && ev.Side == "cpu" && ev.To == "open" {
			sawReopen = true
		}
		if ev.Kind == telemetry.EventHealth && ev.Side == "cpu" && ev.To == "ok" {
			sawRecover = true
		}
	}
	if !sawReopen || !sawRecover {
		t.Fatalf("restoration missed events: reopen=%v recover=%v\n%v",
			sawReopen, sawRecover, rec2.Events())
	}
}

// monitorFleet builds n instrumented links over one shared recorder,
// calibrates them, and runs rounds through MonitorAll at the given
// parallelism, returning every event published.
func monitorFleet(t *testing.T, n, rounds, parallelism int) []telemetry.Event {
	t.Helper()
	rec := &telemetry.Recorder{}
	links := make([]*Link, n)
	for i := range links {
		cfg := DefaultConfig()
		cfg.Parallelism = parallelism
		l, err := NewLink(fmt.Sprintf("bus%d", i), cfg, txline.DefaultConfig(), rng.New(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
		l.SetSink(rec)
		links[i] = l
	}
	for r := 0; r < rounds; r++ {
		if _, err := monitorAll(links, parallelism); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Events()
}

func TestMonitorAllEventOrderParallelismInvariant(t *testing.T) {
	seq := monitorFleet(t, 3, 2, 1)
	par := monitorFleet(t, 3, 2, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("event sequence differs between parallelism 1 and 4:\nP1: %v\nP4: %v", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("no events published")
	}
	// Sinks must be restored after the parallel section: a follow-up
	// sequential round still reaches the shared recorder directly.
}

func TestMultiLinkEventOrderParallelismInvariant(t *testing.T) {
	run := func(parallelism int) []telemetry.Event {
		cfg := DefaultConfig()
		cfg.Parallelism = parallelism
		m, err := NewMultiLink("bus", cfg, txline.DefaultConfig(), 3, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		rec := &telemetry.Recorder{}
		m.SetSink(rec)
		if err := m.Calibrate(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			if _, err := m.MonitorOnce(); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Events()
	}
	seq := run(1)
	par := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("multi-link event sequence differs between parallelism 1 and 4:\nP1: %v\nP4: %v", seq, par)
	}
	var fusedRounds int
	for _, ev := range seq {
		if ev.Kind == telemetry.EventRound && ev.Link == "bus" {
			fusedRounds++
		}
	}
	if fusedRounds != 4 { // 2 rounds × 2 sides
		t.Fatalf("fused round events = %d, want 4", fusedRounds)
	}
}
