package main

// The herd's GET /v1/stream is the federated face of the daemons' multiplexed
// event stream: one downstream connection fans out to one upstream WatchMulti
// per shard, and the shards' frames are re-encoded onto the single downstream
// socket. Per-link sequence numbers are owned by the serving daemon and pass
// through untouched — a resume cursor handed back to the herd lands on the
// same daemon (consistent-hash assignment), so the cursor stays meaningful
// across herd restarts. The herd adds no buffering of record: an upstream gap
// or shard failure is re-encoded as a Gap or Error frame and ends the stream,
// never papered over.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"time"

	"divot/client"
	"divot/internal/attest"
	"divot/internal/telemetry"
	"divot/internal/wire"
)

// herdHeartbeat paces downstream keep-alive frames while every shard is
// quiet (matches the daemons' own stream heartbeat).
const herdHeartbeat = 5 * time.Second

// streamMsg is one item off the merged per-shard feeds: an event, or a
// shard's feed ending (err nil only when the watch was closed locally).
type streamMsg struct {
	ev    client.Event
	ended bool
	shard string
	err   error
}

func (h *Herd) handleStream(w http.ResponseWriter, r *http.Request) {
	sub, err := wire.ParseSubscribeRequest(r)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "%v", err)
		return
	}
	for _, k := range sub.Kinds {
		if _, ok := telemetry.KindByName(k); !ok {
			attest.WriteError(w, attest.CodeBadRequest, "unknown event kind %q", k)
			return
		}
	}

	// Resolve targets and their serving shards. Explicitly named buses must
	// all be servable — a dead shard's bus is an up-front unavailable, not a
	// silently missing feed. A whole-fleet subscribe streams what is
	// currently assigned; the Hello names exactly the links served.
	var targets []string
	if len(sub.Links) == 0 {
		h.mu.RLock()
		targets = append([]string(nil), h.buses...)
		h.mu.RUnlock()
	} else {
		seen := make(map[string]bool, len(sub.Links))
		h.mu.RLock()
		for _, id := range sub.Links {
			if _, known := h.owners[id]; !known {
				h.mu.RUnlock()
				attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
				return
			}
			if !seen[id] {
				seen[id] = true
				targets = append(targets, id)
			}
		}
		h.mu.RUnlock()
		sort.Strings(targets)
	}
	p := h.planFor(targets)
	if len(sub.Links) > 0 && len(p.unassigned) > 0 {
		attest.WriteError(w, attest.CodeUnavailable,
			"no live daemon serves %v", p.unassigned)
		return
	}
	if len(sub.Links) == 0 {
		targets = targets[:0]
		for _, group := range p.ids {
			targets = append(targets, group...)
		}
		sort.Strings(targets)
	}
	if len(p.ids) == 0 {
		attest.WriteError(w, attest.CodeUnavailable, "no live daemon serves any bus")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		attest.WriteError(w, attest.CodeInternal, "streaming unsupported")
		return
	}

	// Open every upstream watch before the first downstream byte: a shard
	// refusing the subscribe (unknown kind, gone bus) still surfaces as a
	// proper error envelope.
	ctx := r.Context()
	names := make([]string, 0, len(p.ids))
	for _, name := range h.names {
		if p.ids[name] != nil {
			names = append(names, name)
		}
	}
	watches := make([]*client.MultiWatch, 0, len(names))
	for _, name := range names {
		group := p.ids[name]
		after := make(map[string]uint64)
		for _, id := range group {
			if cur, ok := sub.After[id]; ok {
				after[id] = cur
			}
		}
		s := h.shards[name]
		start := time.Now()
		mw, err := s.c.WatchMulti(ctx, client.WatchOptions{
			Links: group, Kinds: sub.Kinds, AfterByLink: after, Buffer: 64,
		})
		s.streamDur.get().Observe(time.Since(start).Seconds())
		if err != nil {
			for _, open := range watches {
				open.Close()
			}
			h.markStreamFailure(name, err)
			attest.WriteError(w, errCode(err), "daemon %s: %v", name, err)
			return
		}
		watches = append(watches, mw)
	}

	merged := make(chan streamMsg, 64)
	for i, mw := range watches {
		go func(name string, mw *client.MultiWatch) {
			for ev := range mw.Events() {
				select {
				case merged <- streamMsg{ev: ev}:
				case <-ctx.Done():
					return
				}
			}
			select {
			case merged <- streamMsg{ended: true, shard: name, err: mw.Err()}:
			case <-ctx.Done():
			}
		}(names[i], mw)
	}
	defer func() {
		for _, mw := range watches {
			mw.Close()
		}
	}()

	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	hello, _ := json.Marshal(wire.Hello{Links: targets})
	buf := wire.AppendFrame(nil, wire.FrameHello, hello)
	if _, err := w.Write(buf); err != nil {
		return
	}
	fl.Flush()

	heartbeat := time.NewTicker(herdHeartbeat)
	defer heartbeat.Stop()
	live := len(watches)
	for {
		buf = buf[:0]
		select {
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			buf = wire.AppendFrame(buf, wire.FrameHeartbeat, nil)
		case msg := <-merged:
			for {
				if msg.ended {
					if msg.err == nil || errors.Is(msg.err, ctx.Err()) && ctx.Err() != nil {
						live--
						if live > 0 {
							break
						}
						// Every shard finished cleanly: tell the subscriber
						// the stream is over rather than just hanging up.
						buf = wire.AppendFrame(buf, wire.FrameShutdown, nil)
						w.Write(buf) //nolint:errcheck // closing anyway
						fl.Flush()
						return
					}
					buf = h.appendShardFailure(buf, msg.shard, msg.err)
					w.Write(buf) //nolint:errcheck // closing anyway
					fl.Flush()
					return
				}
				buf = wire.AppendEventFrame(buf, msg.ev)
				// Opportunistically batch whatever else is already queued
				// into this write.
				select {
				case msg = <-merged:
					continue
				default:
				}
				break
			}
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

// appendShardFailure re-encodes a shard's terminal watch error for the
// downstream subscriber: an upstream resume gap stays a Gap frame (typed,
// with the link and cursor bounds), everything else becomes an Error frame
// naming the shard. Either way the shard is re-probed for liveness via the
// usual mark-down path.
func (h *Herd) appendShardFailure(buf []byte, name string, err error) []byte {
	h.markStreamFailure(name, err)
	var gap *client.ResumeGapError
	if errors.As(err, &gap) {
		raw, _ := json.Marshal(wire.Gap{Link: gap.Link, Resume: gap.Resume, Oldest: gap.Oldest})
		return wire.AppendFrame(buf, wire.FrameGap, raw)
	}
	raw, _ := json.Marshal(wire.ErrorInfo{
		Code:    errCode(err),
		Message: "daemon " + name + ": " + err.Error(),
	})
	return wire.AppendFrame(buf, wire.FrameError, raw)
}

// markStreamFailure applies the History rule to a stream fan-out failure:
// structured 4xx answers mean the daemon is alive and refusing, transport
// faults and 5xx mark it down and re-balance its buses.
func (h *Herd) markStreamFailure(name string, err error) {
	var aerr *client.APIError
	if errors.As(err, &aerr) && aerr.Status < 500 {
		return
	}
	var gap *client.ResumeGapError
	if errors.As(err, &gap) {
		return // the daemon answered fine; the subscriber's cursor is stale
	}
	if h.setDown(name, err.Error()) {
		h.rebalanced()
	}
}
