package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"divot/internal/wire"
)

// MultiWatch is a live subscription to many buses' event feeds over one
// logical stream. Events from every subscribed link arrive interleaved on
// Events(), each link's events in its own sequence order, deduplicated, with
// the same exactly-once-across-reconnects guarantee Watch documents — per
// link, keyed by the per-link cursors LastSeq exposes.
//
// The subscription rides one multiplexed binary connection at a time
// (GET /v1/stream, internal/wire framing), redialed with every link's cursor
// after a disconnect.
type MultiWatch struct {
	ch     chan Event
	cancel context.CancelFunc

	mu      sync.Mutex
	err     error
	links   []string
	cursors map[string]uint64
}

// Events is the delivery channel, shared by every subscribed link. Closed
// when the subscription ends.
func (mw *MultiWatch) Events() <-chan Event { return mw.ch }

// LastSeq returns the sequence number of link id's newest event handed to
// the Events() buffer; zero for a link with no deliveries yet. It can run
// ahead of the consumer by a full buffer (WatchOptions.Buffer events) plus
// one, so it is not a durable cursor: the per-link resume point for a
// future WatchMulti (via WatchOptions.AfterByLink) is the Seq of the last
// event of that link the consumer processed.
func (mw *MultiWatch) LastSeq(id string) uint64 {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return mw.cursors[id]
}

// LastSeqs copies every link's LastSeq. Like LastSeq it can run ahead of the
// consumer by a full buffer plus one event; a consumer that persists
// per-link cursors to continue in a new process should record each event's
// Seq once it has processed it.
func (mw *MultiWatch) LastSeqs() map[string]uint64 {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	out := make(map[string]uint64, len(mw.cursors))
	for id, seq := range mw.cursors {
		out[id] = seq
	}
	return out
}

// Links returns the resolved subscription set: the requested links, or — for
// a fleet-wide subscription — what the server expanded it to.
func (mw *MultiWatch) Links() []string {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return append([]string(nil), mw.links...)
}

// Close tears the subscription down. Events() closes shortly after; safe to
// call more than once and concurrently with receives.
func (mw *MultiWatch) Close() { mw.cancel() }

// Err reports why the subscription ended: nil until Events() closes, then
// the caller's context error for cancellation, an *APIError for a server
// refusal, a *ResumeGapError for an evicted resume point, or the transport
// fault that exhausted the retry policy.
func (mw *MultiWatch) Err() error {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return mw.err
}

func (mw *MultiWatch) setErr(err error) {
	mw.mu.Lock()
	if mw.err == nil {
		mw.err = err
	}
	mw.mu.Unlock()
}

func (mw *MultiWatch) cursor(id string) uint64 {
	mw.mu.Lock()
	defer mw.mu.Unlock()
	return mw.cursors[id]
}

func (mw *MultiWatch) setCursor(id string, seq uint64) {
	mw.mu.Lock()
	mw.cursors[id] = seq
	mw.mu.Unlock()
}

func (mw *MultiWatch) cursorsCopy() map[string]uint64 { return mw.LastSeqs() }

func (mw *MultiWatch) setLinks(links []string) {
	mw.mu.Lock()
	mw.links = append([]string(nil), links...)
	mw.mu.Unlock()
}

// WatchMulti opens a live event subscription over many buses: the links named
// in opts.Links, or the whole fleet when none are. Events of every subscribed
// link arrive interleaved on one channel; opts.Kinds narrows them to the
// named event kinds, and opts.AfterByLink resumes each link past events a
// previous subscription already delivered (with the same continuity guarantee
// Watch documents — an evicted resume point ends the subscription with a
// *ResumeGapError naming the link, never a silent skip).
//
// The first connection is established synchronously — an unknown bus or
// unreachable daemon reports here, not on the channel. A daemon that does
// not serve GET /v1/stream answers with an *APIError here too.
func (c *Client) WatchMulti(ctx context.Context, opts WatchOptions) (*MultiWatch, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 16
	}
	wctx, cancel := context.WithCancel(ctx)
	mw := &MultiWatch{
		ch: make(chan Event, opts.Buffer), cancel: cancel,
		cursors: make(map[string]uint64, len(opts.AfterByLink)),
	}
	for id, seq := range opts.AfterByLink {
		mw.cursors[id] = seq
	}
	mw.setLinks(opts.Links)

	resp, err := c.connectMulti(wctx, opts.Links, opts.Kinds, mw.cursorsCopy())
	if err != nil {
		cancel()
		return nil, err
	}
	go mw.runBinary(wctx, c, opts, resp)
	return mw, nil
}

// streamURL renders the /v1/stream query form of a Subscribe handshake.
// Cursors are sorted so the URL (and any log of it) is deterministic.
func (c *Client) streamURL(links, kinds []string, after map[string]uint64) string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if len(links) > 0 {
		add("links", strings.Join(links, ","))
	}
	if len(kinds) > 0 {
		add("kinds", strings.Join(kinds, ","))
	}
	if len(after) > 0 {
		entries := make([]string, 0, len(after))
		for id, seq := range after {
			if seq > 0 {
				entries = append(entries, id+":"+strconv.FormatUint(seq, 10))
			}
		}
		if len(entries) > 0 {
			sort.Strings(entries)
			add("after", strings.Join(entries, ","))
		}
	}
	u := c.base + "/v1/stream"
	if len(parts) > 0 {
		u += "?" + strings.Join(parts, "&")
	}
	return u
}

// connectMulti dials the binary stream, retrying transport faults and 5xx
// answers under the client's policy. On success the response body is the open
// stream (no per-attempt timeout — streams live until closed).
func (c *Client) connectMulti(ctx context.Context, links, kinds []string, after map[string]uint64) (*http.Response, error) {
	u := c.streamURL(links, kinds, after)
	var lastErr error
	var spent int64
	for attempt := 0; ; attempt++ {
		resp, err := c.dialMulti(ctx, u)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !c.shouldRetry(ctx, err) || attempt+1 >= c.retry.MaxAttempts {
			return nil, lastErr
		}
		d := c.backoff(attempt)
		if c.retry.Budget > 0 && spent+int64(d) > int64(c.retry.Budget) {
			return nil, lastErr
		}
		spent += int64(d)
		if err := c.sleep(ctx, d); err != nil {
			return nil, lastErr
		}
	}
}

func (c *Client) dialMulti(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("client: building stream request: %w", err)
	}
	req.Header.Set("User-Agent", c.ua)
	req.Header.Set("Accept", wire.ContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: opening stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		raw := make([]byte, 4096)
		n, _ := resp.Body.Read(raw)
		return nil, decodeResponse(resp.StatusCode, raw[:n], nil)
	}
	return resp, nil
}

// runBinary consumes binary stream connections until the context ends, a
// reconnect fails terminally, or the server reports a gap or error frame.
// Each reconnect resumes every link from its last delivered sequence number.
func (mw *MultiWatch) runBinary(ctx context.Context, c *Client, opts WatchOptions, resp *http.Response) {
	defer close(mw.ch)
	for {
		if err := mw.consumeBinary(ctx, resp, opts); err != nil {
			mw.setErr(err)
			return
		}
		if ctx.Err() != nil {
			mw.setErr(ctx.Err())
			return
		}
		next, err := c.connectMulti(ctx, opts.Links, opts.Kinds, mw.cursorsCopy())
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			mw.setErr(err)
			return
		}
		resp = next
	}
}

// consumeBinary reads one binary stream connection until it ends. A nil
// return means reconnect (clean EOF, torn stream, server shutdown frame); an
// error is terminal.
//
// Per-link continuity: the first delivered event of a link whose resume
// cursor was R > 0 must be R+1 — anything later means the retention ring
// evicted part of the feed, reported as *ResumeGapError. The check only runs
// for unfiltered subscriptions (a kind filter legitimately skips sequence
// numbers); a filtered subscription still gets the server's eager Gap frame,
// which checks the same claim against the ring before replay.
func (mw *MultiWatch) consumeBinary(ctx context.Context, resp *http.Response, opts WatchOptions) error {
	defer resp.Body.Close()
	rd := wire.NewReader(resp.Body)
	resume := mw.cursorsCopy()
	checked := make(map[string]bool, len(resume))
	filtered := len(opts.Kinds) > 0
	for {
		typ, payload, err := rd.Next()
		if err != nil {
			return nil // clean EOF or torn stream: reconnect with the cursors
		}
		switch typ {
		case wire.FrameHello:
			var h wire.Hello
			if err := json.Unmarshal(payload, &h); err != nil {
				return fmt.Errorf("client: bad hello frame: %w", err)
			}
			mw.setLinks(h.Links)
		case wire.FrameHeartbeat:
		case wire.FrameShutdown:
			return nil // server shutting down: reconnect (under retry policy)
		case wire.FrameGap:
			var g wire.Gap
			if err := json.Unmarshal(payload, &g); err != nil {
				return fmt.Errorf("client: bad gap frame: %w", err)
			}
			return &ResumeGapError{Link: g.Link, Resume: g.Resume, Oldest: g.Oldest}
		case wire.FrameError:
			var e wire.ErrorInfo
			if err := json.Unmarshal(payload, &e); err != nil {
				return fmt.Errorf("client: bad error frame: %w", err)
			}
			return &APIError{Status: http.StatusOK, Code: e.Code, Message: e.Message}
		case wire.FrameEvent:
			ev, err := wire.DecodeEvent(payload)
			if err != nil {
				return fmt.Errorf("client: bad event frame: %w", err)
			}
			prev := mw.cursor(ev.Link)
			if ev.Seq <= prev {
				continue // replay/live overlap: already delivered
			}
			if !checked[ev.Link] {
				checked[ev.Link] = true
				if r := resume[ev.Link]; r > 0 && !filtered && ev.Seq > r+1 {
					return &ResumeGapError{Link: ev.Link, Resume: r, Oldest: ev.Seq}
				}
			}
			// Advance the cursor before the hand-off: a consumer that reads
			// LastSeq right after receiving ev must see ev.Seq, or a cursor it
			// persists would replay ev. Undo it if ev is never handed off.
			mw.setCursor(ev.Link, ev.Seq)
			select {
			case mw.ch <- ev:
			case <-ctx.Done():
				mw.setCursor(ev.Link, prev)
				return nil
			}
		}
	}
}
