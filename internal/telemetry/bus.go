package telemetry

import (
	"sync"
	"sync/atomic"
)

// Bus is an asynchronous publish/subscribe event fan-out. Emit never blocks:
// each subscriber owns a bounded queue, and an event that finds a
// subscriber's queue full is dropped for that subscriber and counted — the
// measurement hot path pays an atomic increment, never a stall. Subscribers
// that need completeness (the audit log) should therefore be wired
// synchronously via Fanout instead of through the bus; the bus serves live
// observers (dashboards, the daemon's alert feeds) where freshness beats
// completeness.
type Bus struct {
	mu      sync.RWMutex
	subs    []*Subscription
	qsubs   []*QueueSub
	seq     atomic.Uint64
	dropped atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscription is one subscriber's bounded event queue.
type Subscription struct {
	bus    *Bus
	ch     chan Event
	filter uint64 // bitmask over EventKind; 0 = everything
	closed atomic.Bool
}

// Subscribe registers a subscriber with the given queue capacity (minimum 1).
// With no kinds listed every event is delivered; otherwise only the listed
// kinds are. Close the subscription to unregister.
func (b *Bus) Subscribe(buffer int, kinds ...EventKind) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	var filter uint64
	for _, k := range kinds {
		filter |= 1 << uint(k)
	}
	s := &Subscription{bus: b, ch: make(chan Event, buffer), filter: filter}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	return s
}

// QueueSub ties a shared coalescing Queue to one bus. One Queue is typically
// subscribed to many buses (one per watched link), so a multiplexed stream
// subscriber pays one bounded buffer total; the coalescing drop policy lives
// in the Queue itself.
type QueueSub struct {
	bus    *Bus
	q      *Queue
	filter uint64 // bitmask over EventKind; 0 = everything
	closed atomic.Bool
}

// SubscribeQueue registers a coalescing queue as a subscriber. With no kinds
// listed every event is delivered; otherwise only the listed kinds are.
// Close the QueueSub to unregister (the queue itself stays usable — it may
// serve other buses).
func (b *Bus) SubscribeQueue(q *Queue, kinds ...EventKind) *QueueSub {
	var filter uint64
	for _, k := range kinds {
		filter |= 1 << uint(k)
	}
	s := &QueueSub{bus: b, q: q, filter: filter}
	b.mu.Lock()
	b.qsubs = append(b.qsubs, s)
	b.mu.Unlock()
	return s
}

// Close unregisters the queue subscription. Safe to call more than once.
func (s *QueueSub) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	b := s.bus
	b.mu.Lock()
	for i, sub := range b.qsubs {
		if sub == s {
			b.qsubs = append(b.qsubs[:i], b.qsubs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// Emit implements Sink: it stamps the bus sequence number and offers the
// event to every subscriber without blocking.
func (b *Bus) Emit(ev Event) { b.Publish(ev) }

// Publish is Emit for callers that need the stamped sequence number back —
// the daemon's alert feeds key their resume protocol on it. Sequence numbers
// start at 1 and are strictly monotonic for the life of the bus.
func (b *Bus) Publish(ev Event) uint64 {
	seq := b.seq.Add(1)
	ev.Seq = seq
	b.mu.RLock()
	for _, s := range b.subs {
		if s.filter != 0 && s.filter&(1<<uint(ev.Kind)) == 0 {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	for _, s := range b.qsubs {
		if s.filter != 0 && s.filter&(1<<uint(ev.Kind)) == 0 {
			continue
		}
		s.q.Push(ev)
	}
	b.mu.RUnlock()
	return seq
}

// SeedSeq raises the bus's sequence counter to at least n, so a bus rebuilt
// after a restart continues the sequence space its predecessor persisted
// instead of reissuing numbers a subscriber may already hold as a resume
// cursor. Lower values are ignored — the counter never moves backward.
func (b *Bus) SeedSeq(n uint64) {
	for {
		cur := b.seq.Load()
		if cur >= n || b.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Published returns how many events have been emitted on the bus.
func (b *Bus) Published() uint64 { return b.seq.Load() }

// Dropped returns the total number of events dropped across all subscribers
// since the bus was created (closed subscribers' drops included).
func (b *Bus) Dropped() uint64 { return b.dropped.Load() }

// Events is the subscriber's receive channel. It is closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Close unregisters the subscription and closes its channel. Safe to call
// more than once.
func (s *Subscription) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	b := s.bus
	b.mu.Lock()
	for i, sub := range b.subs {
		if sub == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	close(s.ch)
}
