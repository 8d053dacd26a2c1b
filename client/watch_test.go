package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/wire"
)

// watchFrames encodes events as one scripted connection's frames with a
// heartbeat before and after each event: heartbeats must stay invisible.
func watchFrames(evs ...Event) []byte {
	hb := wire.AppendFrame(nil, wire.FrameHeartbeat, nil)
	buf := append([]byte(nil), hb...)
	for _, ev := range evs {
		buf = wire.AppendEventFrame(buf, ev)
		buf = append(buf, hb...)
	}
	return buf
}

// seenAfters lists each scripted connection's resume cursor for link id.
func (bs *binaryScript) seenAfters(id string) []uint64 {
	var out []uint64
	for _, sub := range bs.seenSubs() {
		out = append(out, sub.After[id])
	}
	return out
}

func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

func collectN(t *testing.T, w *Watch, n int) []Event {
	t.Helper()
	out := make([]Event, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("stream closed after %d events, want %d (err: %v)", len(out), n, w.Err())
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d events, want %d", len(out), n)
		}
	}
	return out
}

// TestWatchResumesAcrossDisconnects is the streaming acceptance test: the
// server drops the connection twice mid-stream; the watch must redial with
// its resume cursor set to the last delivered sequence number, and the
// consumer must see every event exactly once, in order, heartbeats
// invisible.
func TestWatchResumesAcrossDisconnects(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		switch conn {
		case 0:
			return watchFrames(
				Event{Seq: 1, Kind: "round", Link: "dimm0"},
				Event{Seq: 2, Kind: "alert", Link: "dimm0"},
				Event{Seq: 3, Kind: "gate", Link: "dimm0"},
			), false
		case 1:
			// Overlap: the server's replay window may resend seq 3; the
			// watch must deduplicate it.
			return watchFrames(
				Event{Seq: 3, Kind: "gate", Link: "dimm0"},
				Event{Seq: 4, Kind: "health", Link: "dimm0"},
			), false
		default:
			return watchFrames(Event{Seq: 5, Kind: "round", Link: "dimm0"}), true
		}
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "dimm0", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, w, 5)
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (dupes or gaps)", i, ev.Seq, i+1)
		}
	}
	if w.LastSeq() != 5 {
		t.Errorf("LastSeq = %d, want 5", w.LastSeq())
	}
	// Connect 0 starts fresh, connect 1 resumes past the first drop (seq 3
	// delivered), connect 2 past the second (seq 4 delivered).
	if afters, want := bs.seenAfters("dimm0"), []uint64{0, 3, 4}; !reflect.DeepEqual(afters, want) {
		t.Errorf("server saw after=%v, want %v (resume from last seen seq)", afters, want)
	}
	// Cancellation closes the channel and reports the context error.
	cancel()
	for range w.Events() {
	}
	if !errors.Is(w.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", w.Err())
	}
}

// TestWatchAfterOptionSkipsReplay: WatchOptions.After travels to the server
// on the first connection and pre-seeds the dedupe floor.
func TestWatchAfterOptionSkipsReplay(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return watchFrames(Event{Seq: 7, Kind: "round", Link: "d"}, Event{Seq: 8, Kind: "alert", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{After: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, w, 1)
	if got[0].Seq != 8 {
		t.Errorf("first delivered seq = %d, want 8 (7 is below the After floor)", got[0].Seq)
	}
	if afters := bs.seenAfters("d"); len(afters) != 1 || afters[0] != 7 {
		t.Errorf("server saw after=%v, want [7]", afters)
	}
}

// TestWatchUnknownLinkFailsFast: a 4xx on connect is the caller's mistake —
// Watch returns the structured error synchronously, no retries.
func TestWatchUnknownLinkFailsFast(t *testing.T) {
	conns := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/stream" {
			t.Errorf("watch dialed %s, want /v1/stream", r.URL.Path)
		}
		mu.Lock()
		conns++
		mu.Unlock()
		attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", "ghost")
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Watch(context.Background(), "ghost", WatchOptions{})
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Code != CodeUnknownLink {
		t.Fatalf("Watch err = %v, want *APIError with %s", err, CodeUnknownLink)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("server saw %d connects, want 1 (4xx is terminal)", conns)
	}
}

// TestWatchWithoutStreamRouteFails: a server that does not serve
// GET /v1/stream answers a bare 404. There is no other transport to fall
// back to, so Watch reports the decoded *APIError synchronously, no retries.
func TestWatchWithoutStreamRouteFails(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns++
		mu.Unlock()
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Watch(context.Background(), "d", WatchOptions{})
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Status != http.StatusNotFound {
		t.Fatalf("Watch err = %v, want *APIError with status 404", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 1 {
		t.Errorf("server saw %d connects, want 1 (a 404 is terminal)", conns)
	}
}

// TestWatchConnectRetriesThrough5xx: a daemon mid-restart answers 503; the
// initial connect retries through it under the policy.
func TestWatchConnectRetriesThrough5xx(t *testing.T) {
	conns := 0
	var mu sync.Mutex
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return watchFrames(Event{Seq: 1, Kind: "round", Link: "d"}), true
	})
	inner := bs.srv.Config.Handler
	bs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := conns
		conns++
		mu.Unlock()
		if n < 2 {
			attest.WriteError(w, attest.CodeUnavailable, "restarting")
			return
		}
		inner.ServeHTTP(w, r)
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{})
	if err != nil {
		t.Fatalf("Watch through 503 burst: %v", err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 1 {
		t.Errorf("delivered seq = %d, want 1", got[0].Seq)
	}
}

// TestWatchGivesUpWhenReconnectExhausts: after a disconnect, a server that
// stays down ends the watch with the transport error once the retry policy
// is exhausted — the channel closes instead of spinning forever.
func TestWatchGivesUpWhenReconnectExhausts(t *testing.T) {
	down := false
	var mu sync.Mutex
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return watchFrames(Event{Seq: 1, Kind: "round", Link: "d"}), false
	})
	inner := bs.srv.Config.Handler
	bs.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		d := down
		down = true // first connection streams, everything after is down
		mu.Unlock()
		if d {
			attest.WriteError(w, attest.CodeUnavailable, "gone")
			return
		}
		inner.ServeHTTP(w, r)
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 1 {
		t.Errorf("delivered seq = %d, want 1", got[0].Seq)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				var aerr *APIError
				if !errors.As(w.Err(), &aerr) || aerr.Code != CodeUnavailable {
					t.Fatalf("Err() = %v, want *APIError %s", w.Err(), CodeUnavailable)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch never gave up on a dead server")
		}
	}
}

// TestWatchResumeGapFailsTyped: a Watch opened with After=R claims the
// server still holds event R+1. When the retention ring has evicted it — the
// first replayed event is beyond R+1 — the watch must end with a
// *ResumeGapError carrying the hole's bounds, delivering nothing, rather
// than silently skipping ahead.
func TestWatchResumeGapFailsTyped(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		// The ring's oldest survivor is seq 9; events 6..8 are gone.
		return watchFrames(Event{Seq: 9, Kind: "round", Link: "d"}, Event{Seq: 10, Kind: "alert", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{After: 5})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if ok {
				t.Fatalf("delivered event seq %d across a resume gap", ev.Seq)
			}
			var gap *ResumeGapError
			if !errors.As(w.Err(), &gap) {
				t.Fatalf("Err() = %v, want *ResumeGapError", w.Err())
			}
			if gap.Link != "d" || gap.Resume != 5 || gap.Oldest != 9 {
				t.Errorf("gap = %+v, want {Link:d Resume:5 Oldest:9}", *gap)
			}
			return
		case <-deadline:
			t.Fatal("watch never ended on a resume gap")
		}
	}
}

// TestWatchResumeGapAfterReconnect: the same continuity check guards the
// watch's own reconnects — events delivered before the disconnect arrive
// normally, then the gapped resume ends the feed instead of bridging the
// hole.
func TestWatchResumeGapAfterReconnect(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		if conn == 0 {
			return watchFrames(Event{Seq: 1, Kind: "round", Link: "d"}, Event{Seq: 2, Kind: "alert", Link: "d"}), false
		}
		// By the time the watch redials resuming past 2, the ring starts at 10.
		return watchFrames(Event{Seq: 10, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collectN(t, w, 2)
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("pre-disconnect seqs = [%d %d], want [1 2]", got[0].Seq, got[1].Seq)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-w.Events():
			if ok {
				t.Fatalf("delivered event seq %d across a resume gap", ev.Seq)
			}
			var gap *ResumeGapError
			if !errors.As(w.Err(), &gap) {
				t.Fatalf("Err() = %v, want *ResumeGapError", w.Err())
			}
			if gap.Link != "d" || gap.Resume != 2 || gap.Oldest != 10 {
				t.Errorf("gap = %+v, want {Link:d Resume:2 Oldest:10}", *gap)
			}
			if afters := bs.seenAfters("d"); len(afters) != 2 || afters[1] != 2 {
				t.Errorf("server saw after=%v, want [0 2]", afters)
			}
			return
		case <-deadline:
			t.Fatal("watch never ended on a resume gap")
		}
	}
}

// TestWatchAfterZeroClaimsNothing: an After-less watch starts wherever the
// ring starts — a high first sequence number is not a gap.
func TestWatchAfterZeroClaimsNothing(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return watchFrames(Event{Seq: 50, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := c.Watch(ctx, "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collectN(t, w, 1); got[0].Seq != 50 {
		t.Errorf("delivered seq = %d, want 50", got[0].Seq)
	}
}

// TestWatchCloseEndsFeed: Close tears the stream down without an external
// context.
func TestWatchCloseEndsFeed(t *testing.T) {
	bs := newBinaryScript(t, func(conn int) ([]byte, bool) {
		return watchFrames(Event{Seq: 1, Kind: "round", Link: "d"}), true
	})
	c, err := New(bs.srv.URL, WithRetryPolicy(fastRetry()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(context.Background(), "d", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collectN(t, w, 1)
	w.Close()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-w.Events():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Events() never closed after Close")
		}
	}
}
