package memctl

import (
	"testing"

	"divot/internal/rng"
	"divot/internal/sim"
)

// harness wires a controller to a device and collects responses.
type harness struct {
	sched *sim.Scheduler
	dev   *Device
	ctl   *Controller
	resps []Response
}

func newHarness(t *testing.T, cfg ControllerConfig, cpuGate, modGate Gate) *harness {
	t.Helper()
	h := &harness{sched: &sim.Scheduler{}}
	var err error
	h.dev, err = NewDevice(DefaultGeometry(), modGate)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl, err = NewController(h.sched, h.dev, cfg, cpuGate)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) submit(op Op, addr Address, data []byte) {
	h.ctl.Submit(&Request{Op: op, Addr: addr, Data: data,
		Done: func(r Response) { h.resps = append(h.resps, r) }})
}

func TestControllerCompletesRequests(t *testing.T) {
	h := newHarness(t, DefaultControllerConfig(), nil, nil)
	for i := 0; i < 20; i++ {
		h.submit(OpRead, Address{Bank: i % 4, Row: i % 3, Col: i}, nil)
	}
	h.sched.Run(1 << 20)
	if len(h.resps) != 20 {
		t.Fatalf("completed %d/20", len(h.resps))
	}
	for _, r := range h.resps {
		if r.Status != StatusOK {
			t.Fatalf("request %d status %v", r.ID, r.Status)
		}
		if r.Latency <= 0 {
			t.Fatalf("request %d non-positive latency", r.ID)
		}
	}
	if h.ctl.Stats.Completed != 20 {
		t.Errorf("stats completed = %d", h.ctl.Stats.Completed)
	}
	if len(h.ctl.queue) != 0 {
		t.Errorf("queue not drained: %d", len(h.ctl.queue))
	}
}

func TestControllerRowHitFasterThanMiss(t *testing.T) {
	h := newHarness(t, DefaultControllerConfig(), nil, nil)
	// Same row twice: second access is a row hit.
	h.submit(OpRead, Address{Bank: 0, Row: 5, Col: 1}, nil)
	h.submit(OpRead, Address{Bank: 0, Row: 5, Col: 2}, nil)
	// Then a row conflict.
	h.submit(OpRead, Address{Bank: 0, Row: 9, Col: 1}, nil)
	h.sched.Run(1 << 20)
	if len(h.resps) != 3 {
		t.Fatalf("completed %d/3", len(h.resps))
	}
	hit := h.resps[1].Completed - h.resps[0].Completed
	conflict := h.resps[2].Completed - h.resps[1].Completed
	if hit >= conflict {
		t.Errorf("row hit service %v not faster than conflict %v", hit, conflict)
	}
	if h.ctl.Stats.RowHits != 1 || h.ctl.Stats.RowMisses != 2 {
		t.Errorf("hits/misses = %d/%d", h.ctl.Stats.RowHits, h.ctl.Stats.RowMisses)
	}
}

func TestFRFCFSBeatsFCFSOnInterleavedRows(t *testing.T) {
	// Alternating rows in one bank: FCFS ping-pongs (all conflicts);
	// FR-FCFS batches row hits.
	load := func(h *harness) {
		for i := 0; i < 32; i++ {
			h.submit(OpRead, Address{Bank: 0, Row: i % 2, Col: i}, nil)
		}
		h.sched.Run(1 << 20)
	}
	fcfsCfg := DefaultControllerConfig()
	fcfsCfg.Arbiter = ArbiterFCFS
	fcfs := newHarness(t, fcfsCfg, nil, nil)
	load(fcfs)
	frfcfs := newHarness(t, DefaultControllerConfig(), nil, nil)
	load(frfcfs)
	if len(fcfs.resps) != 32 || len(frfcfs.resps) != 32 {
		t.Fatalf("completion counts %d, %d", len(fcfs.resps), len(frfcfs.resps))
	}
	if frfcfs.ctl.Stats.RowHitRate() <= fcfs.ctl.Stats.RowHitRate() {
		t.Errorf("FR-FCFS hit rate %v should beat FCFS %v",
			frfcfs.ctl.Stats.RowHitRate(), fcfs.ctl.Stats.RowHitRate())
	}
	if frfcfs.sched.Now() >= fcfs.sched.Now() {
		t.Errorf("FR-FCFS finished at %v, FCFS at %v; expected speedup",
			frfcfs.sched.Now(), fcfs.sched.Now())
	}
}

func TestModuleGateBlocksColdBootReads(t *testing.T) {
	// The module refuses column accesses from an unauthenticated host —
	// the §III cold-boot defense.
	modGate := NewStaticGate(false)
	h := newHarness(t, DefaultControllerConfig(), nil, modGate)
	h.submit(OpRead, Address{Bank: 0, Row: 0, Col: 0}, nil)
	h.sched.Run(1 << 20)
	if len(h.resps) != 1 || h.resps[0].Status != StatusBlockedByModule {
		t.Fatalf("responses = %+v", h.resps)
	}
	if h.dev.BlockedAccesses != 1 {
		t.Errorf("device blocked count = %d", h.dev.BlockedAccesses)
	}
}

func TestCPUGateStallsUntilRecovery(t *testing.T) {
	cpuGate := NewStaticGate(false)
	h := newHarness(t, DefaultControllerConfig(), cpuGate, nil)
	h.submit(OpRead, Address{Bank: 0, Row: 0, Col: 0}, nil)
	// While unauthorized, nothing completes.
	h.sched.RunUntil(50 * sim.Microsecond)
	if len(h.resps) != 0 {
		t.Fatalf("request completed while gate closed: %+v", h.resps)
	}
	// Authentication recovers; the stalled request then completes.
	cpuGate.Set(true)
	h.sched.Run(1 << 20)
	if len(h.resps) != 1 || h.resps[0].Status != StatusOK {
		t.Fatalf("responses after recovery = %+v", h.resps)
	}
	if h.resps[0].Latency < 50*sim.Microsecond {
		t.Errorf("latency %v should include the stall", h.resps[0].Latency)
	}
}

func TestCPUGateFailFast(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.Block = BlockFail
	cpuGate := NewStaticGate(false)
	h := newHarness(t, cfg, cpuGate, nil)
	h.submit(OpWrite, Address{Bank: 1, Row: 1, Col: 1}, make([]byte, 64))
	h.sched.Run(1 << 20)
	if len(h.resps) != 1 || h.resps[0].Status != StatusBlockedByCPU {
		t.Fatalf("responses = %+v", h.resps)
	}
	if h.ctl.Stats.BlockedCPU != 1 {
		t.Errorf("BlockedCPU = %d", h.ctl.Stats.BlockedCPU)
	}
}

func TestRefreshHappens(t *testing.T) {
	h := newHarness(t, DefaultControllerConfig(), nil, nil)
	stream := rng.New(1)
	// Traffic spread across several refresh intervals (the pipelined
	// controller drains a back-to-back burst well inside one tREFI).
	const n = 400
	tREFI := h.ctl.clock.CyclesToTime(int64(DefaultTiming().RefreshInterval))
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 3 * tREFI / n
		h.sched.At(at, func() {
			h.submit(OpRead, Address{Bank: stream.Intn(8), Row: stream.Intn(16), Col: stream.Intn(32)}, nil)
		})
	}
	h.sched.Run(1 << 22)
	if len(h.resps) != n {
		t.Fatalf("completed %d/%d", len(h.resps), n)
	}
	if h.ctl.Stats.Refreshes < 2 {
		t.Errorf("refreshes = %d over three tREFI", h.ctl.Stats.Refreshes)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	h := newHarness(t, DefaultControllerConfig(), nil, nil)
	h.submit(OpRead, Address{Bank: 0, Row: 0, Col: 0}, nil)
	h.sched.Run(1 << 20)
	readLat := h.resps[0].Latency

	h2 := newHarness(t, DefaultControllerConfig(), nil, nil)
	h2.submit(OpWrite, Address{Bank: 0, Row: 0, Col: 0}, make([]byte, 64))
	h2.sched.Run(1 << 20)
	writeLat := h2.resps[0].Latency
	if writeLat <= readLat {
		t.Errorf("write latency %v should exceed read %v (tWR)", writeLat, readLat)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.AvgLatency() != 0 || s.RowHitRate() != 0 {
		t.Error("empty stats should be zero")
	}
	s.Completed = 2
	s.TotalLatency = 10
	if s.AvgLatency() != 5 {
		t.Errorf("AvgLatency = %v", s.AvgLatency())
	}
	s.RowHits, s.RowMisses = 3, 1
	if s.RowHitRate() != 0.75 {
		t.Errorf("RowHitRate = %v", s.RowHitRate())
	}
}

func TestNewControllerValidation(t *testing.T) {
	sched := &sim.Scheduler{}
	dev, _ := NewDevice(DefaultGeometry(), nil)
	bad := DefaultControllerConfig()
	bad.Timing.TRP = 0
	if _, err := NewController(sched, dev, bad, nil); err == nil {
		t.Error("expected timing error")
	}
	bad = DefaultControllerConfig()
	bad.ClockHz = 0
	if _, err := NewController(sched, dev, bad, nil); err == nil {
		t.Error("expected clock error")
	}
}

func TestBankParallelismOverlaps(t *testing.T) {
	// Two row misses in different banks overlap their row activity; the
	// same two misses in one bank serialize. The two-bank case must finish
	// markedly sooner.
	run := func(addr func(i int) Address) sim.Time {
		h := newHarness(t, DefaultControllerConfig(), nil, nil)
		for i := 0; i < 8; i++ {
			h.submit(OpRead, addr(i), nil)
		}
		h.sched.Run(1 << 21)
		if len(h.resps) != 8 {
			t.Fatalf("completed %d/8", len(h.resps))
		}
		return h.sched.Now()
	}
	oneBank := run(func(i int) Address { return Address{Bank: 0, Row: i, Col: 0} })
	spread := run(func(i int) Address { return Address{Bank: i % 8, Row: i, Col: 0} })
	if spread*2 > oneBank {
		t.Errorf("bank-parallel run (%v) should be far faster than single-bank (%v)", spread, oneBank)
	}
}

func TestDataBusSerializesBursts(t *testing.T) {
	// Even with perfect bank parallelism, bursts share one data bus: n
	// row hits across n banks cannot finish faster than n burst times.
	h := newHarness(t, DefaultControllerConfig(), nil, nil)
	const n = 8
	// Open all rows first.
	for i := 0; i < n; i++ {
		h.submit(OpRead, Address{Bank: i, Row: 1, Col: 0}, nil)
	}
	h.sched.Run(1 << 21)
	h.resps = nil
	start := h.sched.Now()
	for i := 0; i < n; i++ {
		h.submit(OpRead, Address{Bank: i, Row: 1, Col: 1}, nil)
	}
	h.sched.Run(1 << 21)
	if len(h.resps) != n {
		t.Fatalf("completed %d/%d", len(h.resps), n)
	}
	elapsed := h.sched.Now() - start
	minBus := h.ctl.clock.CyclesToTime(int64(n * DefaultTiming().BurstCycles))
	if elapsed < minBus {
		t.Errorf("%d bursts finished in %v, below the data-bus floor %v", n, elapsed, minBus)
	}
}
