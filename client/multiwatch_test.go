package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/wire"
)

// binaryScript serves scripted binary /v1/stream connections: connection i
// gets a Hello for the requested links, then frames[i], then holds the
// stream open until the client goes away or disconnects (a mid-stream cut
// from the client's point of view). It records each connection's Subscribe
// handshake so tests can assert the resume protocol.
type binaryScript struct {
	mu    sync.Mutex
	subs  []wire.Subscribe
	conns int
	// script returns the frames (already encoded, Hello excluded) to send
	// on connection n and whether to hold the stream open afterwards.
	script func(conn int) (frames []byte, hold bool)
	srv    *httptest.Server
}

func newBinaryScript(t *testing.T, script func(conn int) ([]byte, bool)) *binaryScript {
	t.Helper()
	bs := &binaryScript{script: script}
	bs.srv = httptest.NewServer(http.HandlerFunc(bs.serve))
	t.Cleanup(bs.srv.Close)
	return bs
}

func (bs *binaryScript) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/stream" {
		http.NotFound(w, r)
		return
	}
	sub, err := wire.ParseSubscribeRequest(r)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "%v", err)
		return
	}
	bs.mu.Lock()
	conn := bs.conns
	bs.conns++
	bs.subs = append(bs.subs, sub)
	bs.mu.Unlock()
	frames, hold := bs.script(conn)

	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	fl := w.(http.Flusher)
	hello, _ := json.Marshal(wire.Hello{Links: sub.Links})
	w.Write(wire.AppendFrame(nil, wire.FrameHello, hello))
	fl.Flush()
	if len(frames) > 0 {
		w.Write(frames)
		fl.Flush()
	}
	if hold {
		<-r.Context().Done()
	}
}

func (bs *binaryScript) seenSubs() []wire.Subscribe {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return append([]wire.Subscribe(nil), bs.subs...)
}

func eventFrames(evs ...Event) []byte {
	var buf []byte
	for _, ev := range evs {
		buf = wire.AppendEventFrame(buf, ev)
	}
	return buf
}

func gapFrame(g wire.Gap) []byte {
	raw, _ := json.Marshal(g)
	return wire.AppendFrame(nil, wire.FrameGap, raw)
}

func TestWatchMultiBinaryDeliversAndResumes(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		switch conn {
		case 0:
			return eventFrames(
				Event{Seq: 1, Kind: "alert", Link: "a"},
				Event{Seq: 1, Kind: "gate", Link: "b"},
				Event{Seq: 2, Kind: "alert", Link: "a"},
			), false // disconnect mid-stream
		default:
			return eventFrames(
				Event{Seq: 2, Kind: "alert", Link: "a"}, // replay overlap: must dedupe
				Event{Seq: 3, Kind: "alert", Link: "a"},
				Event{Seq: 2, Kind: "gate", Link: "b"},
			), true
		}
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mw, err := c.WatchMulti(ctx, WatchOptions{Links: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()

	var got []Event
	for len(got) < 5 {
		select {
		case ev, ok := <-mw.Events():
			if !ok {
				t.Fatalf("feed ended early (err=%v): %v", mw.Err(), got)
			}
			got = append(got, ev)
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled at %v", got)
		}
	}
	want := []Event{
		{Seq: 1, Kind: "alert", Link: "a"},
		{Seq: 1, Kind: "gate", Link: "b"},
		{Seq: 2, Kind: "alert", Link: "a"},
		{Seq: 3, Kind: "alert", Link: "a"},
		{Seq: 2, Kind: "gate", Link: "b"},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if mw.LastSeq("a") != 3 || mw.LastSeq("b") != 2 {
		t.Fatalf("cursors = a:%d b:%d, want a:3 b:2", mw.LastSeq("a"), mw.LastSeq("b"))
	}

	// The reconnect must have carried both cursors as its resume map.
	subs := bs.seenSubs()
	if len(subs) != 2 {
		t.Fatalf("connections = %d, want 2", len(subs))
	}
	if subs[0].After != nil && len(subs[0].After) != 0 {
		t.Fatalf("first connection resume map = %v, want empty", subs[0].After)
	}
	if subs[1].After["a"] != 2 || subs[1].After["b"] != 1 {
		t.Fatalf("reconnect resume map = %v, want a:2 b:1", subs[1].After)
	}
}

func TestWatchMultiBinaryGapFailsTyped(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return gapFrame(wire.Gap{Link: "a", Resume: 5, Oldest: 9}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	mw, err := c.WatchMulti(context.Background(), WatchOptions{
		Links: []string{"a"}, AfterByLink: map[string]uint64{"a": 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	for range mw.Events() {
	}
	var gap *ResumeGapError
	if !errors.As(mw.Err(), &gap) {
		t.Fatalf("err = %v, want *ResumeGapError", mw.Err())
	}
	if gap.Link != "a" || gap.Resume != 5 || gap.Oldest != 9 {
		t.Fatalf("gap = %+v, want {a 5 9}", gap)
	}
}

func TestWatchMultiBinaryErrorFrameFailsTyped(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		raw, _ := json.Marshal(wire.ErrorInfo{Code: attest.CodeUnknownLink, Message: "bus gone"})
		return wire.AppendFrame(nil, wire.FrameError, raw), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	mw, err := c.WatchMulti(context.Background(), WatchOptions{Links: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	for range mw.Events() {
	}
	var apiErr *APIError
	if !errors.As(mw.Err(), &apiErr) || apiErr.Code != attest.CodeUnknownLink {
		t.Fatalf("err = %v, want *APIError unknown_link", mw.Err())
	}
}
