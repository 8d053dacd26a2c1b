package divot

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"divot/internal/sim"
)

func TestMultiLinkFacade(t *testing.T) {
	sys := NewSystem(30, DefaultConfig())
	bus, err := sys.NewMultiLink("bus-a", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewMultiLink("bus-a", 2); err == nil {
		t.Error("duplicate multi-link id should fail")
	}
	if _, err := sys.NewLink("bus-a"); err == nil {
		t.Error("multi-link id should also be reserved against NewLink")
	}
	if err := bus.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if alerts, err := bus.MonitorOnce(); err != nil {
		t.Fatal(err)
	} else if len(alerts) != 0 {
		t.Errorf("clean multi-link alerted: %v", alerts)
	}
	if !bus.CPUGate.Authorized() || !bus.ModuleGate.Authorized() {
		t.Error("fused gates should be open")
	}
}

func TestECCMemorySystem(t *testing.T) {
	cfg := DefaultMemoryConfig()
	cfg.Geometry.ECC = true
	sys := NewSystem(31, DefaultConfig())
	m, err := sys.NewMemorySystem("eccdimm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, cfg.Geometry.BurstBytes)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	addr := MemAddress{Bank: 1, Row: 2, Col: 3}
	m.Write(addr, payload)
	if err := m.Drain(1, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A cosmic-ray upset is corrected transparently during the read.
	m.Device.InjectBitError(addr, 5, 2)
	m.ClearResponses()
	m.Read(addr)
	if err := m.Drain(1, 10*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp := m.Responses()[0]
	if resp.Status != StatusOK {
		t.Fatalf("read status %v", resp.Status)
	}
	if resp.Data[5] != payload[5] {
		t.Error("ECC did not repair the upset")
	}
	if m.Device.ECCStats().CorrectedWords != 1 {
		t.Errorf("ECC stats: %+v", m.Device.ECCStats())
	}
	m.StopMonitor()
}

func TestReactorEscalatesOnColdBoot(t *testing.T) {
	sys := NewSystem(32, DefaultConfig())
	m, err := sys.NewMemorySystem("dimm0", DefaultMemoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if m.Reactor.State().String() != "normal" {
		t.Fatalf("initial reactor state %v", m.Reactor.State())
	}
	cb := NewColdBootSwap(sys.Config().Line, sys.Stream("attacker"))
	m.Bus.Module.SetObservedLine(cb.BusSeenByModule())
	// Enough rounds of persistent failure to pass the wipe threshold.
	rounds := DefaultReactionPolicy().AuthFailureToleranceRounds + 3
	m.RunFor(sim.FromSeconds(float64(rounds+1) * m.Bus.MeasurementDuration()))
	if got := m.Reactor.State(); got != ReactStateWiped {
		t.Errorf("reactor state after persistent cold boot: %v", got)
	}
	if len(m.Reactor.Log) == 0 {
		t.Error("reactor log empty")
	}
	m.StopMonitor()
}

func TestAlignStretchFacade(t *testing.T) {
	sys := NewSystem(33, DefaultConfig())
	l := sys.MustNewLink("bus0")
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	// The facade exposes AlignStretch for custom matching flows; a smoke
	// check that it composes with re-exported types.
	var x, y IIP
	res := AlignStretch(x, y, 0.01, Pipeline{})
	if res.Stretch != 1 || res.Score != 0 {
		t.Errorf("invalid-input alignment: %+v", res)
	}
}

func TestStorageSystemStolenDrive(t *testing.T) {
	sys := NewSystem(34, DefaultConfig())
	st, err := sys.NewStorageSystem("ssd0", 1024, StorageHostConfig{
		LinkClockHz: 1e9, CmdOverheadCycles: 64, MediaCycles: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Calibrate(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, StorageBlockSize)
	payload[0] = 0x5A
	st.WriteBlock(9, payload)
	st.ReadBlock(9)
	st.RunFor(sim.FromSeconds(2 * st.Bus.MeasurementDuration()))
	comps := st.Completions()
	if len(comps) != 2 || comps[0].Status != StorageOK || comps[1].Status != StorageOK {
		t.Fatalf("completions: %+v", comps)
	}
	if comps[1].Data[0] != 0x5A {
		t.Error("read-back mismatch")
	}

	// The drive is stolen and mounted in the attacker's chassis.
	cb := NewColdBootSwap(sys.Config().Line, sys.Stream("thief"))
	st.Bus.Module.SetObservedLine(cb.BusSeenByModule())
	st.RunFor(sim.FromSeconds(3 * st.Bus.MeasurementDuration()))
	st.ClearCompletions()
	st.ReadBlock(9)
	st.RunFor(sim.FromSeconds(2 * st.Bus.MeasurementDuration()))
	comps = st.Completions()
	if len(comps) != 1 || comps[0].Status != StorageBlockedDev {
		t.Fatalf("stolen-drive read: %+v", comps)
	}
	st.StopMonitor()
}

func TestMemMapperFacade(t *testing.T) {
	m, err := NewMemMapper(DefaultMemoryConfig().Geometry, MapBankInterleaved)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := m.Map(64)
	if err != nil {
		t.Fatal(err)
	}
	if addr.Bank != 1 {
		t.Errorf("second burst should interleave to bank 1, got %v", addr)
	}
}

func TestFacadeConstructorErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Engine.ITDR.TrialsPerBin = 0
	sys := NewSystem(40, bad)
	if _, err := sys.NewLink("x"); err == nil {
		t.Error("bad engine config should fail NewLink")
	}
	if _, err := sys.NewMultiLink("y", 0); err == nil {
		t.Error("zero wires should fail NewMultiLink")
	}

	good := NewSystem(41, DefaultConfig())
	if _, err := good.NewStorageSystem("s", 0, StorageHostConfig{
		LinkClockHz: 1e9, CmdOverheadCycles: 1, MediaCycles: 1}); err == nil {
		t.Error("zero capacity should fail NewStorageSystem")
	}
	mcfg := DefaultMemoryConfig()
	mcfg.Geometry.Banks = 0
	if _, err := good.NewMemorySystem("m", mcfg); err == nil {
		t.Error("bad geometry should fail NewMemorySystem")
	}
	mcfg = DefaultMemoryConfig()
	mcfg.Reaction.RecoveryRounds = 0
	if _, err := good.NewMemorySystem("m2", mcfg); err == nil {
		t.Error("bad reaction policy should fail NewMemorySystem")
	}
}

func TestSimTimeReexports(t *testing.T) {
	if SimMillisecond != 1000*SimMicrosecond || SimMicrosecond != 1000*SimNanosecond ||
		SimNanosecond != 1000*SimPicosecond {
		t.Error("simulation time constants inconsistent")
	}
	if SimFromSeconds(1e-9) != SimNanosecond {
		t.Error("SimFromSeconds mismatch")
	}
	var d SimTime = 5 * SimMicrosecond
	if math.Abs(d.Seconds()-5e-6) > 1e-18 {
		t.Errorf("Seconds = %v", d.Seconds())
	}
}

func TestSystemRegistryAndSkips(t *testing.T) {
	sys := NewSystem(50, DefaultConfig())
	single := sys.MustNewLink("a-single")
	if err := single.Calibrate(); err != nil {
		t.Fatal(err)
	}
	sys.MustNewLink("b-raw") // never calibrated
	multi, err := sys.NewMultiLink("c-bundle", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewMultiLink("d-idle", 2); err != nil {
		t.Fatal(err)
	}

	// The registries must hand back what was built (the old facade stored
	// nil multi-link entries and lost them).
	if got, ok := sys.Link("a-single"); !ok || got != single {
		t.Error("Link getter lost a registered single link")
	}
	if got, ok := sys.MultiLink("c-bundle"); !ok || got != multi {
		t.Error("MultiLink getter lost a registered multi-link")
	}
	if _, ok := sys.Link("c-bundle"); ok {
		t.Error("multi-link id must not resolve as a single link")
	}
	if _, ok := sys.MultiLink("nope"); ok {
		t.Error("unknown id resolved as multi-link")
	}

	rounds, err := sys.MonitorAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 {
		t.Fatalf("MonitorAll covered %d of 4 buses: %+v", len(rounds), rounds)
	}
	want := map[string]bool{ // id -> skipped
		"a-single": false, "b-raw": true, "c-bundle": false, "d-idle": true,
	}
	for i, la := range rounds {
		if i > 0 && rounds[i-1].ID >= la.ID {
			t.Error("MonitorAll results not sorted by id")
		}
		skip, known := want[la.ID]
		if !known {
			t.Errorf("unexpected bus %q in MonitorAll", la.ID)
			continue
		}
		if la.Skipped != skip {
			t.Errorf("%s: skipped=%v want %v", la.ID, la.Skipped, skip)
		}
		if skip && la.Reason != "not calibrated" {
			t.Errorf("%s: reason %q", la.ID, la.Reason)
		}
		if len(la.Alerts) != 0 {
			t.Errorf("%s: clean bus alerted: %v", la.ID, la.Alerts)
		}
	}

	// HealthAll: one entry for the calibrated single, one per wire of the
	// calibrated bundle, nothing for uncalibrated buses.
	hs := sys.HealthAll()
	if len(hs) != 3 {
		t.Fatalf("HealthAll entries: %d want 3: %+v", len(hs), hs)
	}
	for i, h := range hs {
		if i > 0 && hs[i-1].ID >= h.ID {
			t.Error("HealthAll not sorted by id")
		}
		if h.State() != HealthOK {
			t.Errorf("%s: state %v", h.ID, h.State())
		}
	}
}

// TestHealthAllEmptyFleetEncodesEmptyJSONList pins the regression where a
// fleet with nothing calibrated returned a nil slice that JSON-encoded as
// null instead of [].
func TestHealthAllEmptyFleetEncodesEmptyJSONList(t *testing.T) {
	sys := NewSystem(3, DefaultConfig())
	if _, err := sys.NewLink("raw"); err != nil { // registered, never calibrated
		t.Fatal(err)
	}
	hs := sys.HealthAll()
	if hs == nil {
		t.Fatal("HealthAll returned a nil slice for an uncalibrated fleet")
	}
	if len(hs) != 0 {
		t.Fatalf("HealthAll = %+v, want empty", hs)
	}
	raw, err := json.Marshal(hs)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "[]" {
		t.Errorf("HealthAll JSON = %s, want []", raw)
	}
}

// TestMonitorAllCtxCancellation checks the context-aware facade round: a
// cancelled context skips every pending bus with SkipCancelled and joins
// context.Canceled into the error, while a live context behaves exactly like
// MonitorAll.
func TestMonitorAllCtxCancellation(t *testing.T) {
	sys := NewSystem(51, DefaultConfig())
	for _, id := range []string{"m0", "m1"} {
		l, err := sys.NewLink(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Calibrate(); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any round starts
	rounds, err := sys.MonitorAllCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled joined in", err)
	}
	if len(rounds) != 2 {
		t.Fatalf("rounds = %+v", rounds)
	}
	for _, la := range rounds {
		if !la.Skipped || la.Reason != SkipCancelled {
			t.Errorf("%s: skipped=%v reason=%q, want cancelled skip", la.ID, la.Skipped, la.Reason)
		}
	}
	if rounds[0].Reason.String() != "cancelled" {
		t.Errorf("SkipCancelled wire form = %q", rounds[0].Reason.String())
	}

	// A live context runs every bus, like MonitorAll.
	rounds, err = sys.MonitorAllCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, la := range rounds {
		if la.Skipped {
			t.Errorf("%s unexpectedly skipped: %q", la.ID, la.Reason)
		}
	}
}

// TestMonitorNCtxStopsBetweenRounds checks the context-aware multi-round
// monitor: cancellation between rounds returns the context error without
// running further rounds.
func TestMonitorNCtxStopsBetweenRounds(t *testing.T) {
	sys := NewSystem(52, DefaultConfig())
	l, err := sys.NewLink("bus0")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Calibrate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := l.Rounds()
	if _, err := l.MonitorNCtx(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if l.Rounds() != before {
		t.Errorf("cancelled MonitorNCtx still ran %d rounds", l.Rounds()-before)
	}
	if _, err := l.MonitorNCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if l.Rounds() != before+2 {
		t.Errorf("rounds = %d, want %d", l.Rounds(), before+2)
	}
}
