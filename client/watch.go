package client

import (
	"context"
	"fmt"
)

// WatchOptions configures a Watch or WatchMulti.
type WatchOptions struct {
	// After resumes a single-link Watch past events the caller has already
	// seen: only events with Seq > After are delivered. 0 replays the
	// server's whole retention ring. A non-zero After is a continuity claim —
	// if the server has already evicted event After+1 from its retention
	// ring, the watch ends with a *ResumeGapError instead of silently
	// skipping ahead. WatchMulti ignores it; use AfterByLink.
	After uint64
	// Buffer is the delivery channel's capacity (default 16). A full buffer
	// back-pressures the reader goroutine, not the server — the server drops
	// events for slow subscribers, and the watch re-syncs by resuming.
	Buffer int
	// Links names the buses a WatchMulti subscribes to; empty means the
	// whole fleet. Watch ignores it (the watched bus is its id argument).
	Links []string
	// Kinds narrows delivery to the named event kinds (attest.Event.Kind
	// strings: "alert", "gate", "health", ...); empty delivers every kind the
	// feed carries. The server applies the filter, so the wire carries only
	// the named kinds; an unknown kind name is a bad_request.
	Kinds []string
	// AfterByLink is WatchMulti's per-link resume map: each named link
	// resumes past its cursor (see After for the continuity semantics; the
	// gap error then names the link). Links absent from the map start from
	// the server's whole retention ring.
	AfterByLink map[string]uint64
}

// ResumeGapError reports a broken resume: the watch asked the server to
// continue past sequence number Resume, but the oldest event the server
// still retained was Oldest > Resume+1 — the events in between fell off the
// server's bounded retention ring and can never be delivered. The watch ends
// rather than silently restarting from the surviving snapshot; the caller
// decides whether to re-Watch with After 0 (accepting the hole) or to
// rebuild its state from GET /v1/links/{id}/alerts first.
type ResumeGapError struct {
	// Link is the bus whose feed gapped.
	Link string
	// Resume is the sequence number the watch tried to continue past.
	Resume uint64
	// Oldest is the first sequence number the server still had.
	Oldest uint64
}

// Error implements the error interface.
func (e *ResumeGapError) Error() string {
	return fmt.Sprintf("client: resume gap on %s: events %d..%d evicted from the server's retention ring",
		e.Link, e.Resume+1, e.Oldest-1)
}

// Watch is a live subscription to one bus's event feed. Events arrive on
// Events() in sequence order, deduplicated; the channel closes when the
// subscription ends, after which Err reports why.
//
// Watch is a single-link view over the same machinery as WatchMulti: it
// rides the multiplexed binary stream (GET /v1/stream) subscribed to one link.
//
// # Resume semantics
//
// The Watch owns reconnection: a dropped stream (daemon restart, network
// fault) is redialed under the client's retry policy with the resume cursor
// set to the last delivered sequence number, and the server replays its
// retention ring past that point before switching to live delivery. Replay
// and live feed may overlap; the Watch deduplicates by sequence number. The
// guarantee is exactly-once delivery across the Watch's own reconnects: a
// consumer that reads Events() to completion observes each retained event at
// most once, in order, with no event skipped silently.
//
// Two bounded buffers qualify that guarantee, detectably:
//
//   - Under sustained overload the daemon degrades delivery for subscribers
//     that cannot keep up: its per-subscriber queues are bounded and never
//     block the measurement hot path, so periodic events (health, round,
//     measurement) are coalesced to their newest value and, past that,
//     events are dropped — both counted in the daemon's metrics. A drop is
//     visible as a sequence jump between consecutive delivered events within
//     one connection.
//   - Across a disconnect, events older than the daemon's retention ring
//     cannot be replayed. When the resume point has been evicted the watch
//     ends with *ResumeGapError rather than skipping the hole — the caller
//     chooses how to re-sync (see ResumeGapError).
//
// The durable resume cursor is the Seq of the last event the consumer has
// processed: persisting that lets a future Watch (even in a new process)
// continue with WatchOptions.After and keep the same guarantee. LastSeq is
// not that cursor. It counts an event once it enters the Events() buffer,
// so it can run ahead of the consumer by a full buffer (WatchOptions.Buffer
// events) plus the event waiting to enter it; a consumer that persists it
// and then crashes skips the events still buffered.
type Watch struct {
	mw *MultiWatch
	id string
}

// Events is the delivery channel. Closed when the watch ends.
func (w *Watch) Events() <-chan Event { return w.mw.Events() }

// LastSeq returns the sequence number of the newest event handed to the
// Events() buffer. It can run ahead of the consumer by a full buffer plus
// one event; the durable resume point for a future Watch is the Seq of the
// last event the consumer processed (see Watch).
func (w *Watch) LastSeq() uint64 { return w.mw.LastSeq(w.id) }

// Close tears the watch down. Events() closes shortly after; safe to call
// more than once and concurrently with receives.
func (w *Watch) Close() { w.mw.Close() }

// Err reports why the watch ended: nil until Events() closes, then the
// caller's context error for cancellation, an *APIError for a server
// refusal, a *ResumeGapError for an evicted resume point, or the transport
// fault that exhausted the retry policy.
func (w *Watch) Err() error { return w.mw.Err() }

// Watch opens a live event subscription for one bus. The first connection is
// established synchronously — an unknown bus or unreachable daemon reports
// here, not on the channel — and the feed then runs until ctx is done, Close
// is called, or reconnection fails terminally. opts.Kinds filters the feed;
// opts.Links and opts.AfterByLink are WatchMulti concerns and are ignored.
func (c *Client) Watch(ctx context.Context, id string, opts WatchOptions) (*Watch, error) {
	opts.Links = []string{id}
	opts.AfterByLink = nil
	if opts.After > 0 {
		opts.AfterByLink = map[string]uint64{id: opts.After}
	}
	mw, err := c.WatchMulti(ctx, opts)
	if err != nil {
		return nil, err
	}
	return &Watch{mw: mw, id: id}, nil
}
