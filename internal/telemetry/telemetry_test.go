package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventMeasurement, EventRound, EventAlert, EventGate,
		EventHealth, EventSuspect, EventReenroll, EventCalibrated,
		EventReactor, EventFault, EventAttack, EventMonitorError}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := EventKind(200).String(); !strings.HasPrefix(got, "EventKind(") {
		t.Fatalf("unknown kind renders as %q", got)
	}
}

func TestFanoutSkipsNil(t *testing.T) {
	if Fanout() != nil || Fanout(nil, nil) != nil {
		t.Fatal("empty fanout should be nil")
	}
	r := &Recorder{}
	if Fanout(nil, r) != Sink(r) {
		t.Fatal("single-sink fanout should unwrap")
	}
	r2 := &Recorder{}
	f := Fanout(r, r2)
	f.Emit(Event{Kind: EventRound})
	if r.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fanout delivered %d/%d events", r.Len(), r2.Len())
	}
}

func TestRecorderDrainPreservesOrder(t *testing.T) {
	r := &Recorder{}
	for i := 0; i < 5; i++ {
		r.Emit(Event{Kind: EventRound, Round: uint64(i + 1)})
	}
	dst := &Recorder{}
	r.DrainTo(dst)
	if r.Len() != 0 {
		t.Fatal("drain should empty the recorder")
	}
	evs := dst.Events()
	for i, ev := range evs {
		if ev.Round != uint64(i+1) {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
	}
	// Draining to nil discards.
	r.Emit(Event{})
	r.DrainTo(nil)
	if r.Len() != 0 {
		t.Fatal("nil drain should discard")
	}
}

func TestBusDeliversAndFilters(t *testing.T) {
	b := NewBus()
	all := b.Subscribe(16)
	alerts := b.Subscribe(16, EventAlert)
	b.Emit(Event{Kind: EventRound, Link: "a"})
	b.Emit(Event{Kind: EventAlert, Link: "a"})
	if got := len(all.Events()); got != 2 {
		t.Fatalf("unfiltered subscriber has %d events, want 2", got)
	}
	if got := len(alerts.Events()); got != 1 {
		t.Fatalf("filtered subscriber has %d events, want 1", got)
	}
	ev := <-alerts.Events()
	if ev.Kind != EventAlert || ev.Seq == 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
	all.Close()
	alerts.Close()
	alerts.Close() // idempotent
	b.Emit(Event{Kind: EventAlert})
	if b.Published() != 3 {
		t.Fatalf("published %d, want 3", b.Published())
	}
}

func TestBusDropsInsteadOfBlocking(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(2)
	for i := 0; i < 10; i++ {
		b.Emit(Event{Kind: EventRound})
	}
	if b.Dropped() != 8 {
		t.Fatalf("bus dropped %d, want 8", b.Dropped())
	}
	if len(s.Events()) != 2 {
		t.Fatalf("queue holds %d, want 2", len(s.Events()))
	}
	s.Close()
}

func TestBusConcurrentEmit(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Emit(Event{Kind: EventMeasurement})
			}
		}()
	}
	wg.Wait()
	if got := len(s.Events()) + int(b.Dropped()); got != 800 {
		t.Fatalf("delivered+dropped = %d, want 800", got)
	}
	if b.Published() != 800 {
		t.Fatalf("published %d, want 800", b.Published())
	}
	s.Close()
}

func TestAuditLogDeterministicContent(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		a := NewAuditLog(&buf)
		a.Emit(Event{Kind: EventRound, Link: "dimm0", Side: "cpu", Round: 3, Score: 0.98125, To: "ok"})
		a.Emit(Event{Kind: EventAlert, Link: "dimm0", Side: "module", Round: 4,
			Score: 0.41, To: "auth-failure", Detail: `[module] auth failure: S=0.4100`})
		a.Emit(Event{Kind: EventHealth, Link: "dimm0", Side: "module", From: "ok", To: "failed"})
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, two := emit(), emit()
	if one != two {
		t.Fatalf("audit content differs across identical runs:\n%s\nvs\n%s", one, two)
	}
	want := `{"seq":1,"kind":"round","link":"dimm0","side":"cpu","round":3,"score":0.98125,"to":"ok"}` + "\n"
	if !strings.HasPrefix(one, want) {
		t.Fatalf("first line =\n%swant prefix\n%s", one, want)
	}
	if !strings.Contains(one, `"from":"ok","to":"failed"`) {
		t.Fatalf("health transition missing from log:\n%s", one)
	}
	if a := NewAuditLog(&bytes.Buffer{}); a.Lines() != 0 {
		t.Fatal("fresh log should report zero lines")
	}
}

func TestAuditLogEscapesAndClock(t *testing.T) {
	var buf bytes.Buffer
	a := NewAuditLog(&buf).WithClock(func() time.Time {
		return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	})
	a.Emit(Event{Kind: EventMonitorError, Link: `li"nk`, Detail: "line1\nline2\ttab"})
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{`"link":"li\"nk"`, `line1\nline2\ttab`, `"wall":"2026-08-05T12:00:00Z"`} {
		if !strings.Contains(got, want) {
			t.Fatalf("audit line %q missing %q", got, want)
		}
	}
	if a.Lines() != 1 {
		t.Fatalf("lines = %d, want 1", a.Lines())
	}
}

func TestMetricsSinkUpdatesFamilies(t *testing.T) {
	reg := NewRegistry()
	m := NewMetricsSink(reg)
	m.Emit(Event{Kind: EventMeasurement, Link: "a", Side: "cpu", SatBins: 2})
	m.Emit(Event{Kind: EventRound, Link: "a", Side: "cpu", Score: 0.98, Retries: 2, To: "ok"})
	m.Emit(Event{Kind: EventAlert, Link: "a", Side: "cpu", To: "tamper", Detail: "tamper at 100mm"})
	m.Emit(Event{Kind: EventGate, Link: "a", Side: "cpu", From: "open", To: "closed"})
	m.Emit(Event{Kind: EventHealth, Link: "a", Side: "cpu", From: "ok", To: "degraded"})
	m.Emit(Event{Kind: EventSuspect, Link: "a", Side: "cpu"})
	m.Emit(Event{Kind: EventReenroll, Link: "a", Side: "cpu"})
	m.Emit(Event{Kind: EventCalibrated, Link: "a"})
	m.Emit(Event{Kind: EventReactor, Link: "a", From: "normal", To: "halted", Detail: "halt: authentication failure"})
	m.Emit(Event{Kind: EventFault, Link: "a", Side: "cpu", Detail: "emi-burst"})
	m.Emit(Event{Kind: EventAttack, Link: "a", Detail: "interposer"})
	m.Emit(Event{Kind: EventMonitorError, Link: "a", Detail: "enrollment lost"})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`divot_measurements_total{link="a",side="cpu"} 1`,
		`divot_saturated_bins_total{link="a",side="cpu"} 2`,
		`divot_rounds_total{link="a",side="cpu"} 1`,
		`divot_round_verdicts_total{link="a",side="cpu",verdict="ok"} 1`,
		`divot_confirm_retries_total{link="a",side="cpu"} 2`,
		`divot_alerts_total{link="a",side="cpu",kind="tamper"} 1`,
		`divot_gate_transitions_total{link="a",side="cpu",to="closed"} 1`,
		`divot_gate_open{link="a",side="cpu"} 0`,
		`divot_health_state{link="a",side="cpu"} 2`,
		`divot_health_transitions_total{link="a",side="cpu",to="degraded"} 1`,
		`divot_suspect_rounds_total{link="a",side="cpu"} 1`,
		`divot_reenrollments_total{link="a",side="cpu"} 1`,
		`divot_calibrations_total{link="a"} 1`,
		`divot_reactor_state{link="a"} 2`,
		`divot_reactor_actions_total{link="a",action="halt"} 1`,
		`divot_faults_injected_total{link="a",side="cpu"} 1`,
		`divot_attacks_total{link="a"} 1`,
		`divot_monitor_errors_total{link="a"} 1`,
		`divot_similarity_score_bucket{link="a",side="cpu",le="0.99"} 1`,
		`divot_similarity_score_count{link="a",side="cpu"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "test", []float64{1, 2, 5}).With()
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 16 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 2`, // 0.5 and the exactly-1 observation
		`h_bucket{le="2"} 3`,
		`h_bucket{le="5"} 4`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 16`,
		`h_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRenderIsSortedAndStable(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zzz_total", "last", "link")
	g := reg.Gauge("aaa", "first")
	c.With("b").Inc()
	c.With("a").Add(2)
	g.With().Set(1.5)
	render := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := render()
	if one != render() {
		t.Fatal("render not stable")
	}
	if strings.Index(one, "aaa") > strings.Index(one, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", one)
	}
	if strings.Index(one, `{link="a"}`) > strings.Index(one, `{link="b"}`) {
		t.Fatalf("series not sorted:\n%s", one)
	}
}

func TestRegistryReregistrationRules(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c_total", "help", "link")
	b := reg.Counter("c_total", "help", "link")
	a.With("x").Inc()
	if b.With("x").Value() != 1 {
		t.Fatal("re-registration should share the family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched re-registration should panic")
		}
	}()
	reg.Gauge("c_total", "help", "link")
}
