package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"divot/internal/attest"
)

// getData fetches a URL and unwraps the v1 envelope into out.
func getData(t *testing.T, url string, out any) {
	t.Helper()
	if err := attest.ParseBody(get(t, url), out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// writeSpec drops a spec file into a temp dir.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// get fetches a URL and returns the body.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestDaemonEndToEnd runs the acceptance scenario: a three-bus fleet
// monitored concurrently, a scripted interposer inserted on one bus after two
// rounds. The attacked bus must raise alerts, transition health, and close a
// gate — visible through /v1/links, /v1/links/{id}/alerts and /metrics —
// while the other buses keep authenticating. Cancellation (the SIGTERM path)
// must shut the daemon down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 42,
		"listen": "127.0.0.1:0",
		"interval_ms": 5,
		"jitter_frac": 0.2,
		"buses": [
			{"id": "dimm0"},
			{"id": "dimm1", "attack": {"kind": "interposer", "after_rounds": 2, "position": 0.1}},
			{"id": "dimm2"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, io.Discard) }()
	t.Cleanup(cancel)

	// Wait for the listener, then for the attack to land and be confirmed.
	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		if addr := d.Addr(); addr != "" {
			base = "http://" + addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started listening")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var views []attest.LinkSummary
	deadline := time.Now().Add(30 * time.Second)
	for {
		var lr attest.LinksResponse
		getData(t, base+"/v1/links", &lr)
		views = lr.Links
		byID := make(map[string]attest.LinkSummary)
		for _, v := range views {
			byID[v.ID] = v
		}
		if v := byID["dimm1"]; v.Health == "failed" && !v.CPUGate {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interposer never detected; views: %+v", views)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The clean buses must still be authenticating with open gates.
	// ("degraded" — benign dead-bin masking at reduced resolution — still
	// authenticates; only "failed" means the bus stopped passing.)
	for _, v := range views {
		if v.ID == "dimm1" {
			continue
		}
		if v.Health == "failed" || !v.CPUGate || !v.ModuleGate {
			t.Errorf("clean bus %s failed alongside the attack: %+v", v.ID, v)
		}
	}

	// The attacked bus's alert ring must show the alert and the health
	// transition.
	var er attest.EventsResponse
	getData(t, base+"/v1/links/dimm1/alerts", &er)
	alerts := er.Events
	var sawAlert, sawHealth, sawGate bool
	for _, a := range alerts {
		switch a.Kind {
		case "alert":
			sawAlert = true
		case "health":
			if a.To == "failed" {
				sawHealth = true
			}
		case "gate":
			if a.To == "closed" {
				sawGate = true
			}
		}
	}
	if !sawAlert || !sawHealth || !sawGate {
		t.Fatalf("alert ring missing events: alert=%v health=%v gate=%v\n%+v",
			sawAlert, sawHealth, sawGate, alerts)
	}

	// Metrics must show the alert counter for dimm1, round counters for
	// every bus, and the closed gate. Polled: the gauges converge a round or
	// two after the view does, so a single scrape can race a transient.
	wantMetrics := []string{
		`divot_alerts_total{link="dimm1"`,
		`divot_rounds_total{link="dimm0"`,
		`divot_rounds_total{link="dimm2"`,
		`divot_gate_open{link="dimm1",side="cpu"} 0`,
		`divot_round_duration_seconds_bucket{link="dimm1"`,
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		metrics := string(get(t, base+"/metrics"))
		missing := ""
		for _, want := range wantMetrics {
			if !strings.Contains(metrics, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("metrics never showed %q", missing)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// On-demand authentication against the attacked bus must reject.
	resp, err := http.Post(base+"/v1/links/dimm1/authenticate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var auth attest.AuthReport
	if err := attest.ParseBody(body, &auth); err != nil {
		t.Fatal(err)
	}
	if auth.Accepted {
		t.Error("interposed bus passed on-demand authentication")
	}

	// Unknown bus → 404 with the documented error code in the envelope.
	r404, err := http.Get(base + "/v1/links/nope/alerts")
	if err != nil {
		t.Fatal(err)
	}
	body404, _ := io.ReadAll(r404.Body)
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown bus status = %d, want 404", r404.StatusCode)
	}
	if perr := attest.ParseBody(body404, nil); perr == nil ||
		!strings.Contains(perr.Error(), attest.CodeUnknownLink) {
		t.Errorf("unknown bus error = %v, want %s envelope", perr, attest.CodeUnknownLink)
	}

	// Graceful shutdown: cancel (the SIGTERM path) and wait for Run.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within 10s")
	}
}

// TestDaemonAuditLog checks the audit file exists, is flushed at shutdown,
// and carries well-formed JSON lines with wall-clock stamps.
func TestDaemonAuditLog(t *testing.T) {
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	spec, err := LoadSpec(writeSpec(t, fmt.Sprintf(`{
		"seed": 7,
		"listen": "127.0.0.1:0",
		"interval_ms": 5,
		"audit_log": %q,
		"buses": [{"id": "bus0"}]
	}`, auditPath)))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, io.Discard) }()

	// Let a few rounds land, then stop.
	for deadline := time.Now().Add(15 * time.Second); d.byID["bus0"].rounds.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("no rounds completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("audit log has %d lines, want several", len(lines))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("audit line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if _, ok := rec["wall"]; !ok {
			t.Fatalf("audit line %d has no wall-clock stamp: %s", i+1, line)
		}
		if _, ok := rec["kind"]; !ok {
			t.Fatalf("audit line %d has no kind: %s", i+1, line)
		}
	}
}
