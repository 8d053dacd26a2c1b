package sim

import (
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1e-9) != Nanosecond {
		t.Errorf("FromSeconds(1ns) = %v", FromSeconds(1e-9))
	}
	if Nanosecond.Seconds() != 1e-9 {
		t.Errorf("Seconds = %v", Nanosecond.Seconds())
	}
	for _, c := range []struct {
		t    Time
		want string
	}{
		{500, "500 ps"},
		{2 * Nanosecond, "2.000 ns"},
		{3 * Microsecond, "3.000 µs"},
		{5 * Millisecond, "5.000 ms"},
	} {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if n := s.Run(100); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(10, func() { order = append(order, i) })
	}
	s.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Scheduler
	var fired []Time
	s.After(5, func() {
		fired = append(fired, s.Now())
		s.After(7, func() { fired = append(fired, s.Now()) })
	})
	s.Run(100)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 12 {
		t.Errorf("fired = %v", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Scheduler
	s.At(10, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	n := s.RunUntil(45)
	if n != 4 || count != 4 {
		t.Errorf("ran %d events, count %d", n, count)
	}
	if s.Now() != 45 {
		t.Errorf("time after RunUntil = %v, want deadline", s.Now())
	}
	if len(s.queue) != 6 {
		t.Errorf("pending = %d", len(s.queue))
	}
}

func TestRunawayGuard(t *testing.T) {
	var s Scheduler
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected runaway panic")
		}
	}()
	s.Run(1000)
}

func TestClock(t *testing.T) {
	c := NewClock(156.25e6)
	if c.Period != 6400 {
		t.Errorf("period = %v ps, want 6400", int64(c.Period))
	}
	if c.CyclesToTime(10) != 64000 {
		t.Errorf("CyclesToTime = %v", c.CyclesToTime(10))
	}
}

func TestNewClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewClock(0)
}
