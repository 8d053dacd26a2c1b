// Package sim provides the discrete-event substrate for the memory-bus
// protection simulation: a picosecond-resolution event scheduler and clock
// domains, enough to model DRAM timing and iTDR measurement windows on a
// common timeline.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is simulation time in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) * 1e-12 }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3f ms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3f µs", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3f ns", float64(t)/float64(Nanosecond))
	}
	return fmt.Sprintf("%d ps", int64(t))
}

// FromSeconds converts floating-point seconds to simulation time.
func FromSeconds(s float64) Time { return Time(s * 1e12) }

// Event is a scheduled callback.
type event struct {
	at    Time
	seq   uint64 // FIFO tie-break for same-time events
	run   func()
	index int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler runs events in time order. The zero value is ready to use.
type Scheduler struct {
	now   Time
	seq   uint64
	queue eventQueue
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics —
// it would silently corrupt causality.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, run: fn})
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Step runs the next event, advancing time to it. It reports whether an
// event was run.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	e.run()
	return true
}

// RunUntil executes events until the queue is empty or the next event lies
// beyond the deadline; time ends at min(deadline, last event). It returns
// the number of events executed.
func (s *Scheduler) RunUntil(deadline Time) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
		n++
	}
	if s.now < deadline {
		s.now = deadline
	}
	return n
}

// Run executes every queued event (including ones scheduled while running)
// and returns the number executed. A safety cap guards against runaway
// self-scheduling loops.
func (s *Scheduler) Run(maxEvents int) int {
	n := 0
	for s.Step() {
		n++
		if n >= maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events; runaway schedule?", maxEvents))
		}
	}
	return n
}

// Clock converts between cycle counts and scheduler time.
type Clock struct {
	// Period is the clock period.
	Period Time
}

// NewClock returns a clock with the given frequency in Hz.
func NewClock(freqHz float64) *Clock {
	if freqHz <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock frequency %v", freqHz))
	}
	return &Clock{Period: FromSeconds(1 / freqHz)}
}

// CyclesToTime converts a cycle count to a duration.
func (c *Clock) CyclesToTime(cycles int64) Time { return Time(cycles) * c.Period }
