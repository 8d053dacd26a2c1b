package memctl

import (
	"errors"
	"fmt"

	"divot/internal/sim"
)

// ArbiterPolicy selects how the controller picks the next request.
type ArbiterPolicy int

const (
	// ArbiterFCFS serves requests strictly in arrival order.
	ArbiterFCFS ArbiterPolicy = iota
	// ArbiterFRFCFS prefers requests that hit an already-open row
	// (first-ready, first-come-first-served) — the scheduler of the memory
	// access literature the paper cites for its controller context.
	ArbiterFRFCFS
)

// String names the policy.
func (p ArbiterPolicy) String() string {
	switch p {
	case ArbiterFCFS:
		return "fcfs"
	case ArbiterFRFCFS:
		return "fr-fcfs"
	}
	return fmt.Sprintf("ArbiterPolicy(%d)", int(p))
}

// BlockPolicy selects what the CPU-side gate does with traffic while the
// link is unauthenticated.
type BlockPolicy int

const (
	// BlockStall holds requests until authentication recovers — the
	// paper's reaction ("stopping the normal memory operation until the
	// newly collected fingerprint matches ... again").
	BlockStall BlockPolicy = iota
	// BlockFail completes requests immediately with StatusBlockedByCPU —
	// for workloads that prefer an error over an indefinite stall.
	BlockFail
)

// PagePolicy selects what happens to a row after a column access.
type PagePolicy int

const (
	// PageOpen leaves the row open, betting on locality (row hits).
	PageOpen PagePolicy = iota
	// PageClosed precharges after every access, betting against locality:
	// the next access to the bank skips the precharge penalty.
	PageClosed
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case PageOpen:
		return "open-page"
	case PageClosed:
		return "closed-page"
	}
	return fmt.Sprintf("PagePolicy(%d)", int(p))
}

// Stats aggregates controller behaviour.
type Stats struct {
	Completed     int64
	BlockedCPU    int64
	BlockedModule int64
	Uncorrectable int64
	RowHits       int64
	RowMisses     int64
	Refreshes     int64
	TotalLatency  sim.Time
}

// AvgLatency returns the mean completion latency of successful requests.
func (s Stats) AvgLatency() sim.Time {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.Completed)
}

// RowHitRate returns the fraction of column accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// bankState tracks per-bank scheduling constraints.
type bankState struct {
	readyAt     sim.Time // earliest next command
	activatedAt sim.Time // last ACTIVATE, for tRAS
}

// Controller is the CPU-side memory controller of Fig. 6: request queue,
// arbiter, refresh engine, and the DIVOT gate in the command path.
type Controller struct {
	sched   *sim.Scheduler
	clock   *sim.Clock
	timing  Timing
	device  *Device
	cpuGate Gate
	arbiter ArbiterPolicy
	block   BlockPolicy
	page    PagePolicy

	queue       []*Request
	banks       []bankState
	busy        bool
	wakeAt      sim.Time // earliest pending self-wake; 0 = none
	busFreeAt   sim.Time // shared data bus: next burst may start here
	inFlight    int      // issued requests whose completion has not run
	nextRefresh sim.Time
	nextID      uint64

	// Stats accumulates scheduling outcomes.
	Stats Stats
}

// ControllerConfig bundles construction options.
type ControllerConfig struct {
	Timing  Timing
	Arbiter ArbiterPolicy
	Block   BlockPolicy
	Page    PagePolicy
	// ClockHz is the controller clock (default 800 MHz).
	ClockHz float64
}

// DefaultControllerConfig returns an FR-FCFS controller at 800 MHz with the
// stall reaction policy.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		Timing:  DefaultTiming(),
		Arbiter: ArbiterFRFCFS,
		Block:   BlockStall,
		ClockHz: 800e6,
	}
}

// NewController builds a controller driving the given device. cpuGate may be
// nil for an unprotected system.
func NewController(sched *sim.Scheduler, dev *Device, cfg ControllerConfig, cpuGate Gate) (*Controller, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("memctl: non-positive controller clock %v", cfg.ClockHz)
	}
	if cpuGate == nil {
		cpuGate = GateFunc(func() bool { return true })
	}
	c := &Controller{
		sched:   sched,
		clock:   sim.NewClock(cfg.ClockHz),
		timing:  cfg.Timing,
		device:  dev,
		cpuGate: cpuGate,
		arbiter: cfg.Arbiter,
		block:   cfg.Block,
		page:    cfg.Page,
		banks:   make([]bankState, dev.Geometry().Banks),
	}
	c.nextRefresh = sched.Now() + c.cycles(cfg.Timing.RefreshInterval)
	return c, nil
}

// cycles converts controller cycles to simulation time.
func (c *Controller) cycles(n int) sim.Time { return c.clock.CyclesToTime(int64(n)) }

// Submit queues a request; the Done callback (if any) fires at completion.
// It returns the assigned request ID.
func (c *Controller) Submit(r *Request) uint64 {
	c.nextID++
	r.ID = c.nextID
	r.Issued = c.sched.Now()
	c.queue = append(c.queue, r)
	c.kick()
	return r.ID
}

// kick starts the scheduling loop if it is idle.
func (c *Controller) kick() {
	if c.busy {
		return
	}
	c.busy = true
	c.sched.After(0, c.serviceNext)
}

// serviceNext issues every request whose bank can accept work now (banks
// operate in parallel; bursts serialize on the shared data bus), then parks
// the loop until the next bank becomes ready.
func (c *Controller) serviceNext() {
	now := c.sched.Now()
	if c.wakeAt == now {
		c.wakeAt = 0
	}

	// Refresh has priority over new issues: once due, no further requests
	// start, and the refresh itself waits for in-flight requests to drain
	// (the controller flushes before refreshing).
	if now >= c.nextRefresh {
		if c.inFlight > 0 {
			return // the draining completions will re-enter serviceNext
		}
		c.device.Refresh()
		c.Stats.Refreshes++
		done := now + c.cycles(c.timing.TRFC)
		for i := range c.banks {
			c.banks[i].readyAt = done
		}
		c.nextRefresh += c.cycles(c.timing.RefreshInterval)
		c.sched.At(done, c.serviceNext)
		return
	}

	if len(c.queue) == 0 {
		c.busy = false
		return
	}

	if !c.cpuGate.Authorized() {
		// The paper's reaction: stop memory operation until the
		// fingerprint matches again (§III). Poll on the next
		// measurement-scale interval.
		if c.block == BlockFail {
			for _, r := range c.queue {
				c.finish(r, Response{ID: r.ID, Status: StatusBlockedByCPU})
				c.Stats.BlockedCPU++
			}
			c.queue = c.queue[:0]
			c.busy = false
			return
		}
		c.sched.After(c.cycles(64), c.serviceNext)
		return
	}

	// Issue everything issuable at this instant.
	for len(c.queue) > 0 {
		idx := c.pick(now)
		if idx < 0 {
			break
		}
		r := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		c.issue(r, now)
	}
	if len(c.queue) == 0 {
		c.busy = false
		return
	}

	// Park until the earliest relevant bank frees up (or refresh).
	wake := c.nextRefresh
	if c.arbiter == ArbiterFCFS {
		// Strict order: only the head's bank matters.
		if t := c.banks[c.queue[0].Addr.Bank].readyAt; t < wake {
			wake = t
		}
	} else {
		for _, r := range c.queue {
			if t := c.banks[r.Addr.Bank].readyAt; t < wake {
				wake = t
			}
		}
	}
	if wake <= now {
		wake = now + c.cycles(1)
	}
	if c.wakeAt == 0 || wake < c.wakeAt {
		c.wakeAt = wake
		c.sched.At(wake, c.serviceNext)
	}
}

// pick selects the queue index to issue at the current instant, or -1 when
// no request's bank is available.
func (c *Controller) pick(now sim.Time) int {
	if c.arbiter == ArbiterFRFCFS {
		// First ready (open-row hit on an available bank), oldest first.
		for i, r := range c.queue {
			b := &c.banks[r.Addr.Bank]
			if b.readyAt <= now && c.device.OpenRow(r.Addr.Bank) == r.Addr.Row {
				return i
			}
		}
		// Otherwise the oldest request whose bank is available.
		for i, r := range c.queue {
			if c.banks[r.Addr.Bank].readyAt <= now {
				return i
			}
		}
		return -1
	}
	// FCFS: strictly in order — the head issues only when its bank is free.
	if c.banks[c.queue[0].Addr.Bank].readyAt <= now {
		return 0
	}
	return -1
}

// issue walks one request through precharge/activate/column phases and
// schedules its completion. The caller guarantees the bank is available.
func (c *Controller) issue(r *Request, now sim.Time) {
	b := &c.banks[r.Addr.Bank]
	start := now

	open := c.device.OpenRow(r.Addr.Bank)
	var rowReady sim.Time
	switch {
	case open == r.Addr.Row:
		c.Stats.RowHits++
		rowReady = start
	case open == -1:
		c.Stats.RowMisses++
		c.device.Activate(r.Addr.Bank, r.Addr.Row)
		b.activatedAt = start
		rowReady = start + c.cycles(c.timing.TRCD)
	default:
		c.Stats.RowMisses++
		// Precharge may not begin before tRAS expires for the open row.
		prechargeAt := b.activatedAt + c.cycles(c.timing.TRAS)
		if prechargeAt > start {
			start = prechargeAt
		}
		c.device.Precharge(r.Addr.Bank)
		c.device.Activate(r.Addr.Bank, r.Addr.Row)
		b.activatedAt = start + c.cycles(c.timing.TRP)
		rowReady = b.activatedAt + c.cycles(c.timing.TRCD)
	}
	// The column burst needs the shared data bus; bursts from different
	// banks serialize here even though their row activity overlaps.
	burstStart := rowReady + c.cycles(c.timing.TCAS)
	if burstStart < c.busFreeAt {
		burstStart = c.busFreeAt
	}
	done := burstStart + c.cycles(c.timing.BurstCycles)
	c.busFreeAt = done
	if r.Op == OpWrite {
		done += c.cycles(c.timing.TWR)
	}
	// The bank frees strictly after the completion event at `done` has
	// run, so a same-instant scheduler wake can never issue into a bank
	// whose previous access has not yet touched the device.
	b.readyAt = done + 1
	c.inFlight++

	c.sched.At(done, func() {
		c.inFlight--
		data, accessErr := c.device.ColumnAccess(r.Op, r.Addr, r.Data)
		if c.page == PageClosed {
			// Auto-precharge: close the row and absorb tRP now so the
			// next access to this bank starts from a precharged state.
			prechargeAt := b.activatedAt + c.cycles(c.timing.TRAS)
			if prechargeAt < c.sched.Now() {
				prechargeAt = c.sched.Now()
			}
			c.device.Precharge(r.Addr.Bank)
			b.readyAt = prechargeAt + c.cycles(c.timing.TRP)
		}
		resp := Response{ID: r.ID, Completed: c.sched.Now(), Latency: c.sched.Now() - r.Issued}
		switch {
		case accessErr == nil:
			resp.Status = StatusOK
			resp.Data = data
			c.Stats.Completed++
			c.Stats.TotalLatency += resp.Latency
		case errors.Is(accessErr, ErrUncorrectable):
			resp.Status = StatusUncorrectable
			c.Stats.Uncorrectable++
		case errors.Is(accessErr, ErrUnauthorized):
			resp.Status = StatusBlockedByModule
			c.Stats.BlockedModule++
		default:
			// Anything else is a controller protocol bug, not a runtime
			// condition; surface it loudly.
			panic(fmt.Sprintf("memctl: unexpected device error: %v", accessErr))
		}
		c.finish(r, resp)
		c.serviceNext()
	})
}

// finish delivers the response.
func (c *Controller) finish(r *Request, resp Response) {
	if r.Done != nil {
		r.Done(resp)
	}
}
