package telemetry

import (
	"sync"
	"sync/atomic"
)

// Queue is a bounded event queue with a coalescing drop policy — the
// degradation layer between the measurement hot path and one slow stream
// subscriber. Push never blocks; when the queue is full it degrades in
// preference order instead of stalling the publisher:
//
//  1. A coalescable event (measurement, round, health — periodic state whose
//     newest value supersedes its older ones) replaces the queue's stale
//     pending event of the same (link, kind), counted as a coalesce: the
//     subscriber still learns the current state, just not every step.
//  2. A critical event (alert, gate, reactor, ...) evicts the oldest
//     coalescable entry to make room, so sustained health chatter can never
//     crowd out an alert.
//  3. Only when neither applies is the event dropped, and counted.
//
// One Queue is typically fed by many per-link Bus instances (see
// Bus.SubscribeQueue): a multiplexed stream subscriber owns one Queue no
// matter how many links it watches, so its memory bound is per-subscriber,
// not per-subscriber-per-link.
type Queue struct {
	mu     sync.Mutex
	buf    []Event // ring: [head, head+n)
	head   int
	n      int
	closed bool
	// notify is a 1-slot doorbell: Push arms it, the consumer drains the
	// queue after each receive.
	notify chan struct{}

	dropped atomic.Uint64
	// coalescedC/droppedC are the registry counters Instrument attached (nil
	// otherwise); only the drop count is also kept locally, for Dropped.
	coalescedC *Counter
	droppedC   *Counter
}

// NewQueue returns a queue holding at most capacity events (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{buf: make([]Event, capacity), notify: make(chan struct{}, 1)}
}

// Instrument mirrors the queue's coalesce/drop counts into registry counters
// (the daemon's divot_stream_coalesced_total / divot_stream_dropped_total).
// Call before the queue is in use.
func (q *Queue) Instrument(coalesced, dropped *Counter) {
	q.coalescedC = coalesced
	q.droppedC = dropped
}

// coalescable reports whether a kind's newest value supersedes older pending
// ones. Alerts, gate moves, reactor actions, attacks, and errors are not —
// each one matters individually.
func coalescable(k EventKind) bool {
	switch k {
	case EventMeasurement, EventRound, EventHealth:
		return true
	}
	return false
}

// Push implements Sink: it offers the event to the queue under the coalescing
// drop policy and never blocks.
func (q *Queue) Push(ev Event) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if q.n < len(q.buf) {
		q.buf[(q.head+q.n)%len(q.buf)] = ev
		q.n++
		q.mu.Unlock()
		q.ring()
		return
	}
	// Full. Overflow work is O(capacity) scans, paid only under overload and
	// only by the publisher of the overflowing subscriber's events.
	if coalescable(ev.Kind) {
		for i := q.n - 1; i >= 0; i-- { // newest-first: replace the freshest stale copy
			p := &q.buf[(q.head+i)%len(q.buf)]
			if p.Kind == ev.Kind && p.Link == ev.Link {
				*p = ev
				q.mu.Unlock()
				q.bumpCoalesced()
				q.ring()
				return
			}
		}
		q.mu.Unlock()
		q.bumpDropped()
		return
	}
	for i := 0; i < q.n; i++ { // oldest-first: evict the stalest coalescable
		if coalescable(q.buf[(q.head+i)%len(q.buf)].Kind) {
			for j := i; j < q.n-1; j++ { // close the hole, keeping FIFO order
				q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j+1)%len(q.buf)]
			}
			q.buf[(q.head+q.n-1)%len(q.buf)] = ev
			q.mu.Unlock()
			q.bumpDropped() // the evicted periodic event is lost, and counted
			q.ring()
			return
		}
	}
	q.mu.Unlock()
	q.bumpDropped()
}

// ring arms the doorbell without blocking.
func (q *Queue) ring() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *Queue) bumpCoalesced() {
	if q.coalescedC != nil {
		q.coalescedC.Inc()
	}
}

func (q *Queue) bumpDropped() {
	q.dropped.Add(1)
	if q.droppedC != nil {
		q.droppedC.Inc()
	}
}

// Ready is the doorbell: it receives after one or more Pushes. After each
// receive the consumer should TryPop until empty — one signal may cover many
// events.
func (q *Queue) Ready() <-chan struct{} { return q.notify }

// TryPop removes the oldest pending event, reporting false on empty.
func (q *Queue) TryPop() (Event, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return Event{}, false
	}
	ev := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return ev, true
}

// Len returns how many events are pending.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Dropped returns how many events were lost outright to a full queue.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// Close marks the queue dead: subsequent Pushes are ignored. Pending events
// remain poppable. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}
