package telemetry

import (
	"sync"
	"testing"
)

// drain pops everything pending.
func drain(q *Queue) []Event {
	var out []Event
	for {
		ev, ok := q.TryPop()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestQueueFIFOUnderCapacity: below capacity the queue is a plain FIFO and
// nothing is coalesced or dropped.
func TestQueueFIFOUnderCapacity(t *testing.T) {
	q := NewQueue(8)
	var coalesced Counter
	q.Instrument(&coalesced, nil)
	for i := 0; i < 5; i++ {
		q.Push(Event{Kind: EventAlert, Link: "a", Round: uint64(i)})
	}
	got := drain(q)
	if len(got) != 5 {
		t.Fatalf("drained %d events, want 5", len(got))
	}
	for i, ev := range got {
		if ev.Round != uint64(i) {
			t.Errorf("event %d has round %d, want %d (order broken)", i, ev.Round, i)
		}
	}
	if coalesced.Value() != 0 || q.Dropped() != 0 {
		t.Errorf("counters = %d/%d, want 0/0", coalesced.Value(), q.Dropped())
	}
}

// TestQueueCoalescesPeriodicKinds: a full queue folds a fresh health/round
// update into its stale pending twin — the subscriber sees the newest state,
// the counter records the fold, nothing blocks.
func TestQueueCoalescesPeriodicKinds(t *testing.T) {
	q := NewQueue(2)
	var coalesced Counter
	q.Instrument(&coalesced, nil)
	q.Push(Event{Kind: EventHealth, Link: "a", Round: 1})
	q.Push(Event{Kind: EventRound, Link: "a", Round: 1})
	q.Push(Event{Kind: EventHealth, Link: "a", Round: 9}) // full → coalesce
	if coalesced.Value() != 1 {
		t.Fatalf("Coalesced = %d, want 1", coalesced.Value())
	}
	got := drain(q)
	if len(got) != 2 {
		t.Fatalf("drained %d events, want 2", len(got))
	}
	if got[0].Kind != EventHealth || got[0].Round != 9 {
		t.Errorf("pending health = %+v, want the superseding round-9 update", got[0])
	}
	if got[1].Kind != EventRound {
		t.Errorf("round event displaced: %+v", got[1])
	}
}

// TestQueueCoalesceIsPerLink: coalescing keys on (link, kind) — link b's
// health update must not overwrite link a's.
func TestQueueCoalesceIsPerLink(t *testing.T) {
	q := NewQueue(2)
	q.Push(Event{Kind: EventHealth, Link: "a", Round: 1})
	q.Push(Event{Kind: EventHealth, Link: "b", Round: 2})
	q.Push(Event{Kind: EventHealth, Link: "b", Round: 5})
	got := drain(q)
	if len(got) != 2 || got[0].Link != "a" || got[1].Link != "b" || got[1].Round != 5 {
		t.Errorf("per-link coalesce broke: %+v", got)
	}
	// No pending twin for link c and nothing evictable by a periodic event:
	// counted drop.
	q2 := NewQueue(1)
	q2.Push(Event{Kind: EventAlert, Link: "a"})
	q2.Push(Event{Kind: EventHealth, Link: "c"})
	if q2.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1 (no twin, nothing evictable)", q2.Dropped())
	}
}

// TestQueueCriticalEvictsPeriodic: alerts must survive sustained periodic
// chatter — a full queue makes room for a critical event by evicting the
// oldest coalescable entry, never by dropping the alert.
func TestQueueCriticalEvictsPeriodic(t *testing.T) {
	q := NewQueue(3)
	q.Push(Event{Kind: EventHealth, Link: "a", Round: 1})
	q.Push(Event{Kind: EventAlert, Link: "a", Round: 2})
	q.Push(Event{Kind: EventRound, Link: "a", Round: 3})
	q.Push(Event{Kind: EventGate, Link: "a", Round: 4}) // full → evict health(1)
	got := drain(q)
	if len(got) != 3 {
		t.Fatalf("drained %d events, want 3", len(got))
	}
	if got[0].Kind != EventAlert || got[1].Kind != EventRound || got[2].Kind != EventGate {
		t.Errorf("after eviction: %+v", got)
	}
	if q.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1 (the evicted health update)", q.Dropped())
	}

	// All-critical full queue: the new critical event is the one dropped —
	// delivered history is never rewritten.
	q2 := NewQueue(2)
	q2.Push(Event{Kind: EventAlert, Link: "a", Round: 1})
	q2.Push(Event{Kind: EventGate, Link: "a", Round: 2})
	q2.Push(Event{Kind: EventReactor, Link: "a", Round: 3})
	got = drain(q2)
	if len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Errorf("all-critical overflow rewrote the queue: %+v", got)
	}
	if q2.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", q2.Dropped())
	}
}

// TestQueueReadyDoorbell: the notify channel wakes a consumer without ever
// blocking the publisher, and one signal can cover a burst.
func TestQueueReadyDoorbell(t *testing.T) {
	q := NewQueue(16)
	for i := 0; i < 10; i++ {
		q.Push(Event{Kind: EventAlert, Link: "a", Round: uint64(i)})
	}
	select {
	case <-q.Ready():
	default:
		t.Fatal("doorbell not armed after pushes")
	}
	if got := drain(q); len(got) != 10 {
		t.Fatalf("drained %d, want 10", len(got))
	}
}

// TestBusSubscribeQueue: many per-link buses feed one shared queue; kind
// filters apply per subscription, seqs are stamped by each bus, and closing
// the sub detaches it.
func TestBusSubscribeQueue(t *testing.T) {
	busA, busB := NewBus(), NewBus()
	q := NewQueue(32)
	subA := busA.SubscribeQueue(q, EventAlert)
	subB := busB.SubscribeQueue(q)

	busA.Publish(Event{Kind: EventAlert, Link: "a"})
	busA.Publish(Event{Kind: EventHealth, Link: "a"}) // filtered out for A
	busB.Publish(Event{Kind: EventHealth, Link: "b"})

	got := drain(q)
	if len(got) != 2 {
		t.Fatalf("queue got %d events, want 2: %+v", len(got), got)
	}
	if got[0].Link != "a" || got[0].Seq != 1 || got[1].Link != "b" || got[1].Seq != 1 {
		t.Errorf("per-bus seq spaces broke: %+v", got)
	}

	subA.Close()
	subA.Close() // idempotent
	busA.Publish(Event{Kind: EventAlert, Link: "a"})
	if q.Len() != 0 {
		t.Error("closed queue subscription still receives")
	}
	subB.Close()
}

// TestBusSeedSeq: seeding moves the counter forward only, so restored buses
// continue their persisted sequence space.
func TestBusSeedSeq(t *testing.T) {
	b := NewBus()
	b.SeedSeq(40)
	if got := b.Publish(Event{Kind: EventAlert}); got != 41 {
		t.Errorf("seq after seed = %d, want 41", got)
	}
	b.SeedSeq(10) // backward: ignored
	if got := b.Publish(Event{Kind: EventAlert}); got != 42 {
		t.Errorf("seq after backward seed = %d, want 42", got)
	}
}

// TestQueueConcurrentPushPop is the race-detector workout: publishers on
// several goroutines against one draining consumer, every event accounted
// for as delivered, coalesced, or dropped.
func TestQueueConcurrentPushPop(t *testing.T) {
	q := NewQueue(64)
	var coalesced Counter
	q.Instrument(&coalesced, nil)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kind := EventHealth
				if i%5 == 0 {
					kind = EventAlert
				}
				q.Push(Event{Kind: kind, Link: "l", Round: uint64(w*perWorker + i)})
			}
		}(w)
	}
	done := make(chan int)
	go func() {
		seen := 0
		for {
			select {
			case <-q.Ready():
				for {
					if _, ok := q.TryPop(); !ok {
						break
					}
					seen++
				}
			case <-done:
				for {
					if _, ok := q.TryPop(); !ok {
						done <- seen
						return
					}
					seen++
				}
			}
		}
	}()
	wg.Wait()
	done <- 0
	seen := <-done
	total := uint64(seen) + coalesced.Value() + q.Dropped()
	if total != workers*perWorker {
		t.Errorf("accounting: delivered %d + coalesced %d + dropped %d = %d, want %d",
			seen, coalesced.Value(), q.Dropped(), total, workers*perWorker)
	}
}
