package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/wire"
)

// fakeShard is a scripted upstream divotd: enough of the HTTP surface for
// herd discovery (/healthz, /v1/links), a binary /v1/stream that serves
// a fixed per-link event history honoring the subscriber's resume map and
// kind filter, then holds the stream open, and a POST /v1/attest that
// accepts every bus, in request order unless bend reorders the answer.
// Deterministic where a real daemon would be driven by the physics engine.
type fakeShard struct {
	fed    string
	events map[string][]attest.Event // per link, seq-ascending

	mu   sync.Mutex
	subs []wire.Subscribe
	gap  *wire.Gap // when set, answer any subscribe with this gap frame
	// bend, when set, rewrites the bus ids an attest answer covers.
	bend func(ids []string) []string

	srv *httptest.Server
}

func newFakeShard(t *testing.T, fed string, events map[string][]attest.Event) *fakeShard {
	t.Helper()
	fs := &fakeShard{fed: fed, events: events}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		attest.WriteData(w, http.StatusOK, attest.HealthView{
			Status: "ok", Buses: len(fs.events), FleetOK: true, FederationID: fed,
		})
	})
	mux.HandleFunc("GET /v1/links", func(w http.ResponseWriter, _ *http.Request) {
		var resp attest.LinksResponse
		for id := range fs.events {
			resp.Links = append(resp.Links, attest.LinkSummary{ID: id, Health: "healthy"})
		}
		attest.WriteData(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/stream", fs.serveStream)
	mux.HandleFunc("POST /v1/attest", fs.serveAttest)
	fs.srv = httptest.NewServer(mux)
	t.Cleanup(fs.srv.Close)
	return fs
}

func (fs *fakeShard) serveAttest(w http.ResponseWriter, r *http.Request) {
	req, err := attest.ReadAttestRequest(r.Body)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "%v", err)
		return
	}
	ids := req.Links
	fs.mu.Lock()
	if fs.bend != nil {
		ids = fs.bend(ids)
	}
	fs.mu.Unlock()
	resp := attest.AttestResponse{Results: []attest.AuthReport{}, AllAccepted: true}
	for _, id := range ids {
		resp.Results = append(resp.Results, attest.AuthReport{ID: id, Accepted: true, Score: 1, Health: "ok"})
	}
	attest.WriteData(w, http.StatusOK, resp)
}

func (fs *fakeShard) serveStream(w http.ResponseWriter, r *http.Request) {
	sub, err := wire.ParseSubscribeRequest(r)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "%v", err)
		return
	}
	fs.mu.Lock()
	fs.subs = append(fs.subs, sub)
	gap := fs.gap
	fs.mu.Unlock()

	links := sub.Links
	if len(links) == 0 {
		for id := range fs.events {
			links = append(links, id)
		}
	}
	kindOK := func(kind string) bool {
		if len(sub.Kinds) == 0 {
			return true
		}
		for _, k := range sub.Kinds {
			if k == kind {
				return true
			}
		}
		return false
	}

	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	hello, _ := json.Marshal(wire.Hello{Links: links})
	buf := wire.AppendFrame(nil, wire.FrameHello, hello)
	if gap != nil {
		raw, _ := json.Marshal(*gap)
		buf = wire.AppendFrame(buf, wire.FrameGap, raw)
	} else {
		for _, id := range links {
			for _, ev := range fs.events[id] {
				if ev.Seq > sub.After[id] && kindOK(ev.Kind) {
					buf = wire.AppendEventFrame(buf, ev)
				}
			}
		}
	}
	w.Write(buf) //nolint:errcheck // test server
	fl.Flush()
	<-r.Context().Done()
}

// herdOverFakes builds a herd supervising the given fake shards.
func herdOverFakes(t *testing.T, fakes ...*fakeShard) *Herd {
	t.Helper()
	cfg := herdConfig{
		FederationID:  "fed-test",
		ProbeInterval: time.Hour, // probes only when the test asks
		Replicas:      4,
		Retry:         fastRetryPolicy(),
	}
	for i, fs := range fakes {
		cfg.Daemons = append(cfg.Daemons, daemonAddr{
			Name: string(rune('A' + i)), Addr: fs.srv.URL,
		})
	}
	h, err := NewHerd(context.Background(), cfg)
	if err != nil {
		t.Fatalf("building herd: %v", err)
	}
	return h
}

// herdStream opens the herd's /v1/stream and returns a frame reader.
func herdStream(t *testing.T, base, qs string) (*wire.Reader, func()) {
	t.Helper()
	url := base + "/v1/stream"
	if qs != "" {
		url += "?" + qs
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("herd stream status = %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("herd stream Content-Type = %q, want %q", ct, wire.ContentType)
	}
	return wire.NewReader(resp.Body), func() { resp.Body.Close() }
}

// readHello asserts the next frame is the Hello and returns its link list.
func readHello(t *testing.T, rd *wire.Reader) []string {
	t.Helper()
	typ, payload, err := rd.Next()
	if err != nil || typ != wire.FrameHello {
		t.Fatalf("first frame = %v (%v), want hello", typ, err)
	}
	var h wire.Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		t.Fatal(err)
	}
	return h.Links
}

// readEvents collects n event frames, skipping heartbeats.
func readEvents(t *testing.T, rd *wire.Reader, n int) []attest.Event {
	t.Helper()
	var out []attest.Event
	for len(out) < n {
		typ, payload, err := rd.Next()
		if err != nil {
			t.Fatalf("reading frame after %d events: %v", len(out), err)
		}
		switch typ {
		case wire.FrameHeartbeat:
		case wire.FrameEvent:
			ev, err := wire.DecodeEvent(payload)
			if err != nil {
				t.Fatalf("decoding event: %v", err)
			}
			out = append(out, ev)
		default:
			t.Fatalf("frame = %v, want event (got %d/%d)", typ, len(out), n)
		}
	}
	return out
}

func TestHerdStreamFansAcrossShards(t *testing.T) {
	fs1 := newFakeShard(t, "fed-test", map[string][]attest.Event{
		"a1": {{Seq: 1, Kind: "alert", Link: "a1"}, {Seq: 2, Kind: "gate", Link: "a1"}},
		"a2": {{Seq: 1, Kind: "health", Link: "a2"}},
	})
	fs2 := newFakeShard(t, "fed-test", map[string][]attest.Event{
		"b1": {{Seq: 1, Kind: "alert", Link: "b1"}, {Seq: 2, Kind: "alert", Link: "b1"}},
	})
	h := herdOverFakes(t, fs1, fs2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	// Whole fleet: the Hello names every assigned bus, and all five retained
	// events arrive (per-link order preserved, seq spaces untouched).
	rd, closeStream := herdStream(t, srv.URL, "")
	links := readHello(t, rd)
	if want := []string{"a1", "a2", "b1"}; !reflect.DeepEqual(links, want) {
		t.Fatalf("hello links = %v, want %v", links, want)
	}
	perLink := map[string][]uint64{}
	for _, ev := range readEvents(t, rd, 5) {
		perLink[ev.Link] = append(perLink[ev.Link], ev.Seq)
	}
	closeStream()
	want := map[string][]uint64{"a1": {1, 2}, "a2": {1}, "b1": {1, 2}}
	if !reflect.DeepEqual(perLink, want) {
		t.Fatalf("per-link seqs = %v, want %v", perLink, want)
	}

	// Filtered subscribe: links + kinds + resume map reach the owning shard
	// and only the surviving events come back.
	rd, closeStream = herdStream(t, srv.URL, "links=a1,b1&kinds=alert&after=b1:1")
	defer closeStream()
	if links := readHello(t, rd); !reflect.DeepEqual(links, []string{"a1", "b1"}) {
		t.Fatalf("filtered hello = %v", links)
	}
	got := readEvents(t, rd, 2)
	seen := map[string]uint64{}
	for _, ev := range got {
		if ev.Kind != "alert" {
			t.Fatalf("kind filter leaked %q", ev.Kind)
		}
		seen[ev.Link] = ev.Seq
	}
	if seen["a1"] != 1 || seen["b1"] != 2 {
		t.Fatalf("filtered events = %v, want a1:1 b1:2", seen)
	}
	fs2.mu.Lock()
	lastSub := fs2.subs[len(fs2.subs)-1]
	fs2.mu.Unlock()
	if lastSub.After["b1"] != 1 {
		t.Fatalf("shard resume map = %v, want b1:1", lastSub.After)
	}
}

func TestHerdStreamErrorSurface(t *testing.T) {
	fs1 := newFakeShard(t, "fed-test", map[string][]attest.Event{
		"a1": {{Seq: 1, Kind: "alert", Link: "a1"}},
	})
	fs2 := newFakeShard(t, "fed-test", map[string][]attest.Event{
		"b1": {{Seq: 10, Kind: "alert", Link: "b1"}},
	})
	h := herdOverFakes(t, fs1, fs2)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	// Unknown bus: a pre-stream envelope, not a broken stream.
	resp, err := http.Get(srv.URL + "/v1/stream?links=ghost")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown bus status = %d: %s", resp.StatusCode, raw)
	}
	var env attest.Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil || env.Error.Code != attest.CodeUnknownLink {
		t.Fatalf("unknown bus envelope = %s", raw)
	}

	// An upstream resume gap comes back as a typed Gap frame with the
	// shard-owned cursor bounds, then the stream ends.
	fs2.mu.Lock()
	fs2.gap = &wire.Gap{Link: "b1", Resume: 5, Oldest: 9}
	fs2.mu.Unlock()
	rd, closeStream := herdStream(t, srv.URL, "links=b1&after=b1:5")
	defer closeStream()
	readHello(t, rd)
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			t.Fatalf("reading for gap frame: %v", err)
		}
		if typ == wire.FrameHeartbeat {
			continue
		}
		if typ != wire.FrameGap {
			t.Fatalf("frame = %v, want gap", typ)
		}
		var g wire.Gap
		if err := json.Unmarshal(payload, &g); err != nil {
			t.Fatal(err)
		}
		if g != (wire.Gap{Link: "b1", Resume: 5, Oldest: 9}) {
			t.Fatalf("gap = %+v, want {b1 5 9}", g)
		}
		break
	}
	if _, _, err := rd.Next(); err == nil {
		t.Fatal("stream stayed open after gap frame")
	}

	// A dead shard makes its buses explicitly unavailable.
	fs2.srv.Close()
	if err := h.probeOnce(context.Background()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	resp, err = http.Get(srv.URL + "/v1/stream?links=b1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead shard status = %d: %s", resp.StatusCode, raw)
	}
}
