package daemon

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"divot/internal/attest"
	"divot/internal/telemetry"
	"divot/internal/wire"
)

// handleStream serves the multiplexed binary event stream: many links over
// one connection, framed in the internal/wire format. The subscribe handshake
// (query parameters or JSON body, see wire.ParseSubscribeRequest) selects the
// link set (empty = whole fleet), an optional event-kind filter, and a
// per-link resume cursor; serveFeed then streams a Hello frame naming the
// resolved links, a Gap frame for every link whose cursor fell off the
// retention ring, ring replay, then live delivery.
//
// Handshake errors answer in the JSON envelope before the stream starts;
// after the Hello frame all errors travel as frames.
func (d *Daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	sub, err := wire.ParseSubscribeRequest(r)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "parsing subscribe request: %v", err)
		return
	}
	var targets []*linkState
	if len(sub.Links) == 0 {
		targets = d.sortedLinks()
	} else {
		seen := make(map[string]bool, len(sub.Links))
		targets = make([]*linkState, 0, len(sub.Links))
		for _, id := range sub.Links {
			ls, ok := d.byID[id]
			if !ok {
				attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
				return
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			targets = append(targets, ls)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	}
	kinds := make([]telemetry.EventKind, 0, len(sub.Kinds))
	kindSeen := map[telemetry.EventKind]bool{}
	for _, name := range sub.Kinds {
		k, ok := telemetry.KindByName(name)
		if !ok {
			attest.WriteError(w, attest.CodeBadRequest, "unknown event kind %q", name)
			return
		}
		if !kindSeen[k] {
			kindSeen[k] = true
			kinds = append(kinds, k)
		}
	}
	d.serveFeed(w, r, targets, sub.After, kinds, binaryFeed{})
}

// serveFeed is the one subscription core behind both event routes: it streams
// targets' events (narrowed to kinds when any are given), each link resumed
// past its after cursor, in enc's wire format until the client goes away or
// the daemon stops.
//
// All subscribed links share one bounded coalescing queue (streamQueueCap),
// so a slow subscriber's memory bound is per-connection, not per-link, and
// overflow degrades by coalescing periodic updates before dropping anything
// (counted in divot_stream_coalesced_total / divot_stream_dropped_total).
func (d *Daemon) serveFeed(w http.ResponseWriter, r *http.Request, targets []*linkState,
	after map[string]uint64, kinds []telemetry.EventKind, enc feedEncoder) {
	fl, ok := w.(http.Flusher)
	if !ok {
		attest.WriteError(w, attest.CodeInternal, "response writer cannot stream")
		return
	}

	d.streamSubs.Add(1)
	defer d.streamSubs.Add(-1)

	q := telemetry.NewQueue(streamQueueCap)
	q.Instrument(d.streamCoalesced, d.streamDropped)
	defer q.Close()

	kindSet := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		kindSet[k.String()] = true
	}
	// Subscribe every link before snapshotting its ring: each event is then in
	// the snapshot or on the queue (possibly both — deduplicated by seq, which
	// the per-link `last` cursors below track).
	ids := make([]string, len(targets))
	last := make(map[string]uint64, len(targets))
	type replaySet struct {
		events []attest.Event
		gap    *wire.Gap
	}
	replays := make([]replaySet, len(targets))
	for i, ls := range targets {
		ids[i] = ls.id
		qs := ls.events.SubscribeQueue(q, kinds...)
		defer qs.Close()
		from := after[ls.id]
		last[ls.id] = from
		ring := ls.snapshotAlerts()
		rs := replaySet{}
		// The resume window is the retention ring. A cursor older than the
		// ring's tail means events were lost between connections: say so
		// (the client surfaces ResumeGapError, never a silent skip), then
		// serve what is still retained.
		oldest := ls.events.Published() + 1
		if len(ring) > 0 {
			oldest = ring[0].Seq
		}
		if from > 0 && from+1 < oldest {
			rs.gap = &wire.Gap{Link: ls.id, Resume: from, Oldest: oldest}
		}
		for _, ev := range ring {
			if ev.Seq <= from {
				continue
			}
			if len(kindSet) > 0 && !kindSet[ev.Kind] {
				continue
			}
			rs.events = append(rs.events, ev)
		}
		replays[i] = rs
	}

	h := w.Header()
	h.Set("Content-Type", enc.contentType())
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	buf := enc.hello(nil, ids)
	for _, rs := range replays {
		if rs.gap != nil {
			buf = enc.gap(buf, *rs.gap)
		}
		for _, ev := range rs.events {
			buf = enc.event(buf, ev)
			last[ev.Link] = ev.Seq
		}
	}
	if _, err := w.Write(buf); err != nil {
		return
	}
	fl.Flush()

	heartbeat := time.NewTicker(d.heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-d.stop:
			// Daemon shutting down; the client reconnects elsewhere (or later)
			// with its per-link cursors.
			w.Write(enc.shutdown(buf[:0])) //nolint:errcheck // already terminating
			fl.Flush()
			return
		case <-heartbeat.C:
			buf = enc.heartbeat(buf[:0])
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		case <-q.Ready():
			buf = buf[:0]
			for {
				tev, ok := q.TryPop()
				if !ok {
					break
				}
				if tev.Seq <= last[tev.Link] {
					continue
				}
				buf = enc.event(buf, attest.EventFromTelemetry(tev))
				last[tev.Link] = tev.Seq
			}
			if len(buf) == 0 {
				continue
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// feedEncoder renders serveFeed's frames in one transport's wire format. Each
// method appends to buf and returns the extended slice.
type feedEncoder interface {
	contentType() string
	hello(buf []byte, links []string) []byte
	gap(buf []byte, g wire.Gap) []byte
	event(buf []byte, ev attest.Event) []byte
	heartbeat(buf []byte) []byte
	shutdown(buf []byte) []byte
}

// binaryFeed frames the feed in the internal/wire format of GET /v1/stream.
type binaryFeed struct{}

func (binaryFeed) contentType() string { return wire.ContentType }

func (binaryFeed) hello(buf []byte, links []string) []byte {
	raw, _ := json.Marshal(wire.Hello{Links: links})
	return wire.AppendFrame(buf, wire.FrameHello, raw)
}

func (binaryFeed) gap(buf []byte, g wire.Gap) []byte {
	raw, _ := json.Marshal(g)
	return wire.AppendFrame(buf, wire.FrameGap, raw)
}

func (binaryFeed) event(buf []byte, ev attest.Event) []byte { return wire.AppendEventFrame(buf, ev) }

func (binaryFeed) heartbeat(buf []byte) []byte {
	return wire.AppendFrame(buf, wire.FrameHeartbeat, nil)
}

func (binaryFeed) shutdown(buf []byte) []byte {
	return wire.AppendFrame(buf, wire.FrameShutdown, nil)
}

// sseFeed frames the feed as the server-sent events of
// GET /v1/links/{id}/events. SSE has no hello or gap frame: the link is in
// the URL, and a gapped resume shows as a jump in the id: sequence.
type sseFeed struct{}

func (sseFeed) contentType() string { return "text/event-stream" }

func (sseFeed) hello(buf []byte, _ []string) []byte { return buf }

func (sseFeed) gap(buf []byte, _ wire.Gap) []byte { return buf }

// event renders one event block. The data line is single-line by
// construction: encoding/json escapes newlines inside strings.
func (sseFeed) event(buf []byte, ev attest.Event) []byte {
	raw, _ := json.Marshal(ev) // can't fail for a flat struct of basic types
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, ev.Seq, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, ev.Kind...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, raw...)
	return append(buf, "\n\n"...)
}

func (sseFeed) heartbeat(buf []byte) []byte { return append(buf, ": hb\n\n"...) }

func (sseFeed) shutdown(buf []byte) []byte { return append(buf, ": shutdown\n\n"...) }
