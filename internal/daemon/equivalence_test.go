package daemon

// GET /v1/stream and GET /v1/links/{id}/events are two encodings of one
// subscription core (serveFeed): every retained event, per link, in sequence
// order, exactly once across a reconnect. These tests subscribe the real SDK
// (binary, multiplexed) and a hand-written SSE reader (one connection per
// link) to the same daemon, cut every connection mid-stream, and require the
// per-link feeds to be identical.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	client "divot/client"
	"divot/internal/attest"
	"divot/internal/telemetry"
)

// followSSE reads link id's SSE feed onto the returned channel until ctx
// ends. Whenever a connection ends it redials with ?after= set to the last
// sequence number it read — the resume any SSE consumer performs. It does
// not deduplicate: a repeated or skipped event reaches the test as is.
func followSSE(ctx context.Context, base, id string) <-chan attest.Event {
	// Room for a test's whole feed, so a follower keeps reading its socket
	// while the test drains another link first.
	ch := make(chan attest.Event, 64)
	go func() {
		last := uint64(0)
		for ctx.Err() == nil {
			url := fmt.Sprintf("%s/v1/links/%s/events?after=%d", base, id, last)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			sc := bufio.NewScanner(resp.Body)
			for resp.StatusCode == http.StatusOK {
				ev, ok, err := readSSE(sc)
				if err != nil || !ok {
					break
				}
				select {
				case ch <- ev:
					last = ev.Seq
				case <-ctx.Done():
					resp.Body.Close()
					return
				}
			}
			resp.Body.Close()
		}
	}()
	return ch
}

// drainMulti reads events off mw until every link in want has yielded its
// expected count, failing on a stalled feed or an early close.
func drainMulti(t *testing.T, mw *client.MultiWatch, want map[string]int) map[string][]client.Event {
	t.Helper()
	got := map[string][]client.Event{}
	need := 0
	for _, n := range want {
		need += n
	}
	deadline := time.After(15 * time.Second)
	for need > 0 {
		select {
		case ev, ok := <-mw.Events():
			if !ok {
				t.Fatalf("feed closed early (err=%v), still needed %d events; got %v", mw.Err(), need, got)
			}
			got[ev.Link] = append(got[ev.Link], ev)
			need--
		case <-deadline:
			t.Fatalf("feed stalled, still needed %d events; got %v", need, got)
		}
	}
	return got
}

// drainSSE reads want[link] events off each link's SSE follower.
func drainSSE(t *testing.T, feeds map[string]<-chan attest.Event, want map[string]int) map[string][]client.Event {
	t.Helper()
	got := map[string][]client.Event{}
	deadline := time.After(15 * time.Second)
	for link, n := range want {
		for len(got[link]) < n {
			select {
			case ev := <-feeds[link]:
				got[link] = append(got[link], ev)
			case <-deadline:
				t.Fatalf("SSE feed of %s stalled after %d of %d events; got %v", link, len(got[link]), n, got)
			}
		}
	}
	return got
}

// equivalenceKinds is the kind cycle both links publish: link a starts at
// alert, link b one step later, so a kind filter thins each link differently.
var equivalenceKinds = []telemetry.EventKind{telemetry.EventAlert, telemetry.EventGate, telemetry.EventHealth}

// checkFeedsEquivalent publishes 13 events per link on a two-bus daemon — 5
// retained before anyone subscribes, 4 live, 4 while every connection is cut
// — and requires the binary WatchMulti (filtered to kinds, when given) to
// deliver exactly the SSE feed narrowed to the same kinds.
func checkFeedsEquivalent(t *testing.T, seed int, kinds []string) {
	d := newTestDaemon(t, fmt.Sprintf(`{
		"seed": %d, "listen": "127.0.0.1:0",
		"buses": [{"id": "a"}, {"id": "b"}]
	}`, seed))
	links := []string{"a", "b"}
	keep := map[string]bool{}
	for _, k := range kinds {
		keep[k] = true
	}
	// publish records events from..to on both links and returns how many of
	// each link's the binary watcher should see.
	publish := func(from, to int) map[string]int {
		want := map[string]int{}
		for i := from; i <= to; i++ {
			for j, link := range links {
				k := equivalenceKinds[(i+j)%len(equivalenceKinds)]
				d.byID[link].record(telemetry.Event{Kind: k, Link: link, Round: uint64(i)})
				if len(keep) == 0 || keep[k.String()] {
					want[link]++
				}
			}
		}
		return want
	}
	all := func(n int) map[string]int { return map[string]int{"a": n, "b": n} }

	wantBin := publish(1, 5) // the replay window
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	retry := client.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	c, err := client.New(srv.URL, client.WithRetryPolicy(retry))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mw, err := c.WatchMulti(ctx, client.WatchOptions{Links: links, Kinds: kinds, Buffer: 64})
	if err != nil {
		t.Fatalf("WatchMulti: %v", err)
	}
	defer mw.Close()
	sse := map[string]<-chan attest.Event{}
	for _, link := range links {
		sse[link] = followSSE(ctx, srv.URL, link)
	}

	// Phase 1: replay plus a burst of live events.
	for link, n := range publish(6, 9) {
		wantBin[link] += n
	}
	gotBin := drainMulti(t, mw, wantBin)
	gotSSE := drainSSE(t, sse, all(9))

	// Phase 2: tear every connection down mid-stream. Both readers resume
	// from their cursors, including events recorded while they were down.
	srv.CloseClientConnections()
	for link, evs := range drainMulti(t, mw, publish(10, 13)) {
		gotBin[link] = append(gotBin[link], evs...)
	}
	for link, evs := range drainSSE(t, sse, all(4)) {
		gotSSE[link] = append(gotSSE[link], evs...)
	}

	for _, link := range links {
		var want []client.Event
		for i, ev := range gotSSE[link] {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("link %s SSE event %d: seq = %d, want %d (exactly-once violated)", link, i, ev.Seq, i+1)
			}
			if len(keep) == 0 || keep[ev.Kind] {
				want = append(want, ev)
			}
		}
		if !reflect.DeepEqual(gotBin[link], want) {
			t.Fatalf("link %s: binary and SSE feeds differ:\n binary: %v\n    sse: %v", link, gotBin[link], want)
		}
	}
}

func TestBinaryAndSSEWatchersSeeIdenticalFeeds(t *testing.T) {
	checkFeedsEquivalent(t, 31, nil)
}

func TestKindFilterEquivalentAcrossTransports(t *testing.T) {
	checkFeedsEquivalent(t, 32, []string{"alert"})
}
