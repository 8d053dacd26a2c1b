package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"divot"
	"divot/internal/attest"
	"divot/internal/telemetry"
)

// newTestDaemon builds a calibrated daemon without running schedulers, so
// tests drive rounds synchronously via monitorOnce.
func newTestDaemon(t *testing.T, specBody string) *Daemon {
	t.Helper()
	spec, err := LoadSpec(writeSpec(t, specBody))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// postAttest POSTs a body to /v1/attest and returns status and raw body.
func postAttest(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/attest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestAttestEndpoint(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 9, "listen": "127.0.0.1:0",
		"buses": [{"id": "dimm1"}, {"id": "dimm0"}]
	}`)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Empty body → whole fleet, results in id order, all accepted.
	status, raw := postAttest(t, srv.URL, "")
	if status != http.StatusOK {
		t.Fatalf("whole-fleet attest status = %d: %s", status, raw)
	}
	var resp attest.AttestResponse
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.AllAccepted || len(resp.Results) != 2 {
		t.Fatalf("clean fleet attest = %+v", resp)
	}
	if resp.Results[0].ID != "dimm0" || resp.Results[1].ID != "dimm1" {
		t.Errorf("whole-fleet results not in id order: %+v", resp.Results)
	}
	for _, rep := range resp.Results {
		if !rep.Accepted || rep.Score < 0.9 || rep.Health != "ok" {
			t.Errorf("clean bus report: %+v", rep)
		}
	}

	// Named subset, request order preserved.
	status, raw = postAttest(t, srv.URL, `{"links": ["dimm1"]}`)
	if status != http.StatusOK {
		t.Fatalf("subset attest status = %d: %s", status, raw)
	}
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "dimm1" {
		t.Errorf("subset attest = %+v", resp)
	}

	// Unknown bus → 404 unknown_link envelope.
	status, raw = postAttest(t, srv.URL, `{"links": ["ghost"]}`)
	if status != http.StatusNotFound {
		t.Errorf("unknown bus status = %d", status)
	}
	if err := attest.ParseBody(raw, nil); err == nil ||
		!strings.Contains(err.Error(), attest.CodeUnknownLink) {
		t.Errorf("unknown bus error = %v", err)
	}

	// Malformed body → 400 bad_request envelope.
	status, raw = postAttest(t, srv.URL, `{"links": 7}`)
	if status != http.StatusBadRequest {
		t.Errorf("bad body status = %d", status)
	}
	if err := attest.ParseBody(raw, nil); err == nil ||
		!strings.Contains(err.Error(), attest.CodeBadRequest) {
		t.Errorf("bad body error = %v", err)
	}
}

// TestAttestDetectsInterposer drives a scripted interposer through monitoring
// rounds and requires the batch attest endpoint to reject the attacked bus
// while accepting the clean one.
func TestAttestDetectsInterposer(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 21, "listen": "127.0.0.1:0",
		"buses": [
			{"id": "clean0"},
			{"id": "victim", "attack": {"kind": "interposer", "after_rounds": 0, "position": 0.1}}
		]
	}`)
	for i := 0; i < 4; i++ { // mount the attack and let it be confirmed
		d.monitorOnce(d.byID["victim"])
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	status, raw := postAttest(t, srv.URL, "")
	if status != http.StatusOK {
		t.Fatalf("attest status = %d: %s", status, raw)
	}
	var resp attest.AttestResponse
	if err := attest.ParseBody(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.AllAccepted {
		t.Error("fleet with interposed bus reported all_accepted")
	}
	byID := map[string]attest.AuthReport{}
	for _, rep := range resp.Results {
		byID[rep.ID] = rep
	}
	if rep := byID["victim"]; rep.Accepted {
		t.Errorf("interposed bus accepted: %+v", rep)
	}
	if rep := byID["clean0"]; !rep.Accepted {
		t.Errorf("clean bus rejected: %+v", rep)
	}
}

func TestFleetHealthEndpoint(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 5, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}, {"id": "b"}]
	}`)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var hr attest.FleetHealthResponse
	getData(t, srv.URL+"/v1/health", &hr)
	if len(hr.Links) != 2 {
		t.Fatalf("fleet health links = %+v", hr.Links)
	}
	for _, h := range hr.Links {
		if h.State != "ok" || h.CPU.State != "ok" || h.Module.State != "ok" {
			t.Errorf("calibrated bus health: %+v", h)
		}
	}
}

// TestFleetHealthEmptyEncodesEmptyList is the daemon-level regression for
// System.HealthAll returning nil: a fleet with nothing calibrated must
// encode "links": [], never null.
func TestFleetHealthEmptyEncodesEmptyList(t *testing.T) {
	sys := divot.NewSystem(1, divot.DefaultConfig())
	if _, err := sys.NewLink("raw"); err != nil { // registered, never calibrated
		t.Fatal(err)
	}
	d := &Daemon{sys: sys, heartbeat: defaultHeartbeat, stop: make(chan struct{})}
	d.ready.Store(true) // hand-built daemon: skip the warmup gate
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"links": null`)) {
		t.Fatalf("uncalibrated fleet encoded null: %s", rec.Body.String())
	}
	var hr attest.FleetHealthResponse
	if err := attest.ParseBody(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Links == nil || len(hr.Links) != 0 {
		t.Errorf("links = %#v, want empty non-nil", hr.Links)
	}
}

// sseClient reads server-sent event frames off a stream.
type sseClient struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openStream(t *testing.T, base, id string, after uint64) *sseClient {
	t.Helper()
	url := base + "/v1/links/" + id + "/events"
	if after > 0 {
		url += "?after=" + jsonNumber(after)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	return &sseClient{resp: resp, sc: bufio.NewScanner(resp.Body)}
}

func jsonNumber(n uint64) string {
	raw, _ := json.Marshal(n)
	return string(raw)
}

// next returns the next event frame, skipping heartbeats. ok is false at
// stream end.
func (c *sseClient) next(t *testing.T) (attest.Event, bool) {
	t.Helper()
	ev, ok, err := readSSE(c.sc)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ok
}

// readSSE parses the next event block off sc, skipping comment blocks (": hb"
// heartbeats, ": shutdown"). ok is false at stream end.
func readSSE(sc *bufio.Scanner) (ev attest.Event, ok bool, err error) {
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && data != nil:
			if err := json.Unmarshal(data, &ev); err != nil {
				return ev, false, fmt.Errorf("bad SSE data %s: %v", data, err)
			}
			return ev, true, nil
		}
	}
	return ev, false, nil
}

func (c *sseClient) close() { c.resp.Body.Close() }

// TestEventsStreamReplayResumeAndShutdown covers the stream protocol at the
// daemon: ring replay on connect, resume via ?after, live delivery, and
// termination when the daemon shuts down.
func TestEventsStreamReplayResumeAndShutdown(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 33, "listen": "127.0.0.1:0",
		"buses": [{"id": "victim", "attack": {"kind": "interposer", "after_rounds": 0, "position": 0.12}}]
	}`)
	d.heartbeat = 20 * time.Millisecond
	ls := d.byID["victim"]
	for i := 0; i < 4; i++ { // generate attack/alert/health/gate events
		d.monitorOnce(ls)
	}
	retained := ls.snapshotAlerts()
	if len(retained) < 3 {
		t.Fatalf("expected several retained events, got %+v", retained)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Full replay: seqs are 1..n, strictly monotonic, matching the ring.
	c := openStream(t, srv.URL, "victim", 0)
	for i := range retained {
		ev, ok := c.next(t)
		if !ok {
			t.Fatalf("stream ended after %d of %d replayed events", i, len(retained))
		}
		if ev.Seq != retained[i].Seq || ev.Kind != retained[i].Kind {
			t.Fatalf("replay[%d] = %+v, want %+v", i, ev, retained[i])
		}
	}
	c.close()

	// Resume skips everything at or before ?after.
	after := retained[1].Seq
	c = openStream(t, srv.URL, "victim", after)
	ev, ok := c.next(t)
	if !ok || ev.Seq != retained[2].Seq {
		t.Fatalf("resume after %d delivered %+v, want seq %d", after, ev, retained[2].Seq)
	}

	// Live delivery: another round's events arrive on the open stream.
	last := retained[len(retained)-1].Seq
	for ; ok && ev.Seq < last; ev, ok = c.next(t) {
	}
	done := make(chan struct{})
	go func() { d.monitorOnce(ls); close(done) }()
	liveEv, ok := c.next(t)
	if !ok || liveEv.Seq <= last {
		t.Fatalf("no live event after replay: %+v ok=%v", liveEv, ok)
	}
	<-done

	// Shutdown: closing d.stop must end the stream promptly.
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(d.stop)
	}()
	for {
		if _, ok := c.next(t); !ok {
			break
		}
	}
	c.close()

	// Bad after parameter → 400 envelope.
	resp, err := http.Get(srv.URL + "/v1/links/victim/events?after=nope")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad after status = %d", resp.StatusCode)
	}
	if perr := attest.ParseBody(raw, nil); perr == nil ||
		!strings.Contains(perr.Error(), attest.CodeBadRequest) {
		t.Errorf("bad after error = %v", perr)
	}
}

// stallWriter passes empty writes through and blocks the first write that
// carries bytes until release closes: a subscriber that stopped reading,
// without depending on how much the kernel's socket buffers absorb.
type stallWriter struct {
	http.ResponseWriter
	once    sync.Once
	stalled chan<- struct{}
	release <-chan struct{}
}

func (s *stallWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return s.ResponseWriter.Write(p)
	}
	s.once.Do(func() { close(s.stalled) })
	<-s.release
	return 0, io.ErrClosedPipe
}

func (s *stallWriter) Flush() { s.ResponseWriter.(http.Flusher).Flush() }

// TestSSEDeliveryBoundedAndCounted: an SSE subscriber rides the same bounded
// coalescing queue as a binary one, so its overload degrades into the
// divot_stream_* counters instead of going unreported, and it is counted in
// divot_stream_subscribers while connected.
func TestSSEDeliveryBoundedAndCounted(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 35, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}]
	}`)
	d.heartbeat = time.Hour // no keep-alive write may race the stall
	ls := d.byID["a"]
	stalled, release := make(chan struct{}), make(chan struct{})
	h := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&stallWriter{ResponseWriter: w, stalled: stalled, release: release}, r)
	}))
	defer srv.Close()
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall() // before srv.Close, which waits for the parked handler

	c := openStream(t, srv.URL, "a", 0)
	defer c.close()
	if got := d.streamSubs.Value(); got != 1 {
		t.Fatalf("divot_stream_subscribers = %v with one SSE subscriber, want 1", got)
	}
	// The first event parks the handler in a write that does not return;
	// everything published after it must go through the bounded queue.
	ls.record(telemetry.Event{Kind: telemetry.EventAlert, Link: "a", Round: 1})
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE handler never wrote the live event")
	}
	for i := 0; i < 4*streamQueueCap; i++ {
		k := telemetry.EventHealth
		if i%2 == 1 {
			k = telemetry.EventAlert
		}
		ls.record(telemetry.Event{Kind: k, Link: "a", Round: uint64(i + 2)})
	}
	coalesced, dropped := d.streamCoalesced.Value(), d.streamDropped.Value()
	if coalesced == 0 || dropped == 0 {
		t.Fatalf("stalled SSE subscriber: coalesced=%d dropped=%d, want both > 0", coalesced, dropped)
	}
	if got := uint64(4*streamQueueCap) - coalesced - dropped; got > streamQueueCap {
		t.Fatalf("%d events queued for one subscriber, want at most %d", got, streamQueueCap)
	}

	unstall()
	c.close()
	deadline := time.Now().Add(5 * time.Second)
	for d.streamSubs.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("divot_stream_subscribers = %v after disconnect, want 0", d.streamSubs.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// renderSSE is the SSE event block as GET /v1/links/{id}/events has always
// written it; the shared subscription core must keep producing these bytes.
func renderSSE(evs ...attest.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		raw, _ := json.Marshal(ev)
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, raw)
	}
	return b.String()
}

// TestSSEFrameBytesUnchanged reads an unloaded SSE subscriber's raw bytes —
// replay, live delivery, shutdown — and compares them with renderSSE.
func TestSSEFrameBytesUnchanged(t *testing.T) {
	d := newTestDaemon(t, `{
		"seed": 36, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}]
	}`)
	d.heartbeat = time.Hour
	ls := d.byID["a"]
	ls.record(telemetry.Event{Kind: telemetry.EventAlert, Link: "a", Side: "cpu", Round: 1, Score: 0.41, To: "interposer"})
	ls.record(telemetry.Event{Kind: telemetry.EventGate, Link: "a", Side: "module", Round: 1, From: "open", To: "closed"})
	ls.record(telemetry.Event{Kind: telemetry.EventFault, Link: "a", Round: 2, Detail: "two\nlines, \"quoted\" <tag>"})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/links/a/events?after=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	expect := func(what, want string) {
		t.Helper()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(resp.Body, got); err != nil {
			t.Fatalf("%s: reading %d bytes: %v", what, len(want), err)
		}
		if string(got) != want {
			t.Fatalf("%s bytes differ:\n got: %q\nwant: %q", what, got, want)
		}
	}
	expect("replay", renderSSE(ls.snapshotAlerts()[1:]...))

	ls.record(telemetry.Event{Kind: telemetry.EventHealth, Link: "a", Round: 3, From: "ok", To: "degraded"})
	expect("live", renderSSE(ls.snapshotAlerts()[3:]...))

	close(d.stop)
	rest, _ := io.ReadAll(resp.Body)
	if string(rest) != ": shutdown\n\n" {
		t.Fatalf("shutdown bytes = %q, want %q", rest, ": shutdown\n\n")
	}
}
