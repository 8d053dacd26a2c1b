// Package daemon is the divotd fleet-attestation daemon: it owns a
// divot.System of protected buses, monitors each on its own jittered
// interval, escalates alerts through per-bus reactors, and serves health,
// metrics (Prometheus text format), per-bus alert history, and on-demand
// authentication over HTTP. Telemetry flows from the engine through one
// fanned-out sink into the metrics registry, the JSONL audit log, and the
// daemon's alert rings.
//
// The package is a library (cmd/divotd is a thin wrapper around Main) so the
// divotherd federation aggregator can construct in-process daemon packs in
// its tests and benchmarks.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"divot"
	"divot/internal/attest"
	"divot/internal/rng"
	"divot/internal/store"
	"divot/internal/telemetry"
)

// alertRingCap bounds each bus's in-memory alert history; older entries fall
// off (the audit log keeps everything). It is also the stream resume window:
// a subscriber reconnecting with ?after= older than the ring tail continues
// from the oldest retained event.
const alertRingCap = 128

// streamQueueCap bounds each event-stream subscriber's queue; a subscriber
// that cannot keep up has periodic events coalesced and then loses events
// (counted in the divot_stream_* metrics) rather than stalling the fleet.
const streamQueueCap = 256

// defaultHeartbeat is the idle keep-alive period of the event stream.
const defaultHeartbeat = 5 * time.Second

// Daemon is the running fleet.
type Daemon struct {
	spec  Spec
	sys   *divot.System
	reg   *divot.MetricsRegistry
	audit *divot.AuditLog
	// auditFile is closed (after a final flush) at shutdown when the audit
	// log writes to a file.
	auditFile *os.File

	links []*linkState
	byID  map[string]*linkState

	roundDur   *telemetry.HistogramVec
	overruns   *telemetry.CounterVec
	shardDepth *telemetry.GaugeVec
	cacheHits  *telemetry.CounterVec
	cacheMiss  *telemetry.CounterVec
	storeErrs  *telemetry.CounterVec

	// Stream-subscriber accounting of serveFeed, the core behind both the
	// binary /v1/stream and the per-link SSE feed: live subscriber count, and
	// how the bounded per-subscriber queues degraded under overload.
	streamSubs      *telemetry.Gauge
	streamCoalesced *telemetry.Counter
	streamDropped   *telemetry.Counter

	// backend persists enrollment snapshots, the score-history WAL, and the
	// segmented audit log when the spec names a state_dir (nil otherwise —
	// the daemon is then fully in-memory, the original semantics). specHash
	// binds every snapshot to the seed+config that produced it.
	backend  store.Backend
	specHash string
	// ownBackend marks a backend this daemon opened itself (from
	// spec.StateDir) and must close at shutdown; injected backends belong to
	// the caller.
	ownBackend bool

	// ready flips once every bus is calibrated or warm-restored; until then
	// every route except /readyz and /metrics answers 503 with a Retry-After
	// header. calibratedN/warmN are the /readyz progress counters. warmed
	// makes Warmup idempotent (tests warm explicitly after New, Run warms
	// after its socket opens).
	ready       atomic.Bool
	calibratedN atomic.Int64
	warmN       atomic.Int64
	warmed      bool

	// maxStale bounds how old a bus's cached attestation view may be and
	// still be served (0 = cache disabled, every request re-measures).
	maxStale time.Duration

	// heartbeat paces the event stream's idle keep-alives (tests shorten it).
	heartbeat time.Duration
	// stop is closed when the daemon begins shutting down; open event
	// streams terminate on it so graceful shutdown is not held hostage by
	// long-lived subscribers.
	stop chan struct{}

	started time.Time
	// listener is set once Run has bound the API socket; Addr exposes it so
	// tests can use ":0".
	listenerMu sync.Mutex
	listener   net.Listener
}

// linkState is one protected bus with its scheduler bookkeeping. mu
// serializes monitoring rounds with on-demand authentication — the engine is
// not safe for concurrent use of one link.
type linkState struct {
	id       string
	mu       sync.Mutex
	link     *divot.Link
	reactor  *divot.Reactor
	interval time.Duration
	jitter   *rng.Stream

	attack      divot.Attack
	attackAfter uint64
	attacked    bool

	rounds atomic.Uint64

	// dirty marks that an attention-worthy event (alert, gate move, health
	// transition, re-enrollment, reaction) changed durable state since the
	// last persisted snapshot. Set by alertSink, drained by monitorOnce —
	// so snapshots are written when state actually moves, not every round.
	dirty atomic.Bool

	// hist is the bus's bounded score-history ring (oldest overwritten) and
	// histBuf the reusable render buffer for its history WAL records;
	// histMu covers both.
	histMu  sync.Mutex
	hist    [histRingCap]attest.HistorySample
	histLen int
	histIdx int
	histBuf []byte

	// events fans the bus's feed out to stream subscribers over bounded
	// queues; its sequence counter is the per-link seq the resume protocol
	// keys on. alerts is the retained history (the resume window), stored
	// in wire form with the same sequence numbers. alertsMu covers both, so
	// ring content and published seqs advance in lockstep.
	events   *telemetry.Bus
	alertsMu sync.Mutex
	alerts   []attest.Event

	// cache is the bus's last attestation view. It is refreshed at the end
	// of every error-free monitoring round and after every real spot
	// check, and invalidated the instant anything attention-worthy happens
	// (alert, gate move, health transition, re-enrollment, monitor error,
	// attack) — so a stale "ok" can never outlive the event that made it
	// wrong. cacheMu nests inside mu (monitorOnce refreshes under both)
	// and is never held across engine calls.
	cacheMu     sync.Mutex
	cacheValid  bool
	cacheAt     time.Time
	cacheReport attest.AuthReport
	cacheHealth attest.LinkHealthView
}

// invalidateCache drops the bus's cached attestation view.
func (ls *linkState) invalidateCache() {
	ls.cacheMu.Lock()
	ls.cacheValid = false
	ls.cacheMu.Unlock()
}

// refreshCache installs a fresh attestation view, stamped now.
func (ls *linkState) refreshCache(rep attest.AuthReport, health attest.LinkHealthView) {
	ls.cacheMu.Lock()
	ls.cacheValid = true
	ls.cacheAt = time.Now()
	ls.cacheReport = rep
	ls.cacheHealth = health
	ls.cacheMu.Unlock()
}

// cached returns the bus's attestation view when it is younger than
// maxStale (false otherwise, including whenever the cache is disabled or
// invalidated).
func (ls *linkState) cached(maxStale time.Duration) (attest.AuthReport, attest.LinkHealthView, bool) {
	if maxStale <= 0 {
		return attest.AuthReport{}, attest.LinkHealthView{}, false
	}
	ls.cacheMu.Lock()
	defer ls.cacheMu.Unlock()
	if !ls.cacheValid || time.Since(ls.cacheAt) > maxStale {
		return attest.AuthReport{}, attest.LinkHealthView{}, false
	}
	return ls.cacheReport, ls.cacheHealth, true
}

// record stamps the per-link sequence number, offers the event to stream
// subscribers, and appends it to the bounded retention ring.
func (ls *linkState) record(ev telemetry.Event) {
	ls.alertsMu.Lock()
	defer ls.alertsMu.Unlock()
	wire := attest.EventFromTelemetry(ev)
	wire.Seq = ls.events.Publish(ev)
	ls.alerts = append(ls.alerts, wire)
	if len(ls.alerts) > alertRingCap {
		ls.alerts = ls.alerts[len(ls.alerts)-alertRingCap:]
	}
}

// snapshotAlerts copies the ring, newest last.
func (ls *linkState) snapshotAlerts() []attest.Event {
	ls.alertsMu.Lock()
	defer ls.alertsMu.Unlock()
	out := make([]attest.Event, len(ls.alerts))
	copy(out, ls.alerts)
	return out
}

// alertSink routes attention-worthy events into the owning bus's ring and
// stream feed, and drops the bus's cached attestation view — every kind it
// passes marks a state change the cache must not outlive.
type alertSink struct{ d *Daemon }

// Emit implements telemetry.Sink.
func (s alertSink) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EventAlert, telemetry.EventGate, telemetry.EventHealth,
		telemetry.EventReactor, telemetry.EventMonitorError,
		telemetry.EventAttack, telemetry.EventReenroll:
	default:
		return
	}
	if ls, ok := s.d.byID[ev.Link]; ok {
		ls.invalidateCache()
		ls.dirty.Store(true)
		ls.record(ev)
	}
}

// Options are the values a caller may inject into New; the zero value builds
// the daemon divotd runs.
type Options struct {
	// Config is the engine configuration. Nil derives it from the spec: the
	// defaults with the spec's parallelism and auth threshold. A non-nil
	// config is used as given (the spec's parallelism and auth threshold are
	// ignored in its favour), so benchmarks can run large fleets on
	// deliberately light instruments.
	Config *divot.Config
	// Backend is the persistence backend. Nil opens (and owns) the embedded
	// file backend in the spec's state_dir when it names one, recovering any
	// torn WAL tails from a crash. An injected backend (tests use
	// store.Memory; the spec's state_dir is then ignored) stays owned by the
	// caller: the daemon syncs it at shutdown but does not close it.
	Backend store.Backend
}

// New builds the fleet without bringing it up: calibration/restore is
// deferred to Warmup, which Run calls after its socket opens so /readyz
// (and a 503 everywhere else) is served while the fleet warms. divotd's main
// uses it that way, so a 1000-bus cold boot is observable instead of a silent
// multi-second gap before the socket opens. Callers that serve the Handler
// without Run call Warmup first, so the API never exposes an uncalibrated
// link.
func New(spec Spec, opts Options) (*Daemon, error) {
	var cfg divot.Config
	if opts.Config != nil {
		cfg = *opts.Config
	} else {
		cfg = divot.DefaultConfig()
		cfg.Engine.Parallelism = spec.Parallelism
		if spec.AuthThreshold > 0 {
			cfg.Engine.AuthThreshold = spec.AuthThreshold
		}
	}
	backend := opts.Backend
	// A scripted attack off the line would panic in the scheduler when it
	// mounts; refuse it here, where the line length is known.
	for _, b := range spec.Buses {
		if b.Attack != nil {
			if err := b.Attack.checkPosition(cfg.Line.Length); err != nil {
				return nil, fmt.Errorf("bus %q: %w", b.ID, err)
			}
		}
	}
	sys := divot.NewSystem(spec.Seed, cfg)

	d := &Daemon{
		spec:      spec,
		sys:       sys,
		reg:       divot.NewMetricsRegistry(),
		byID:      make(map[string]*linkState, len(spec.Buses)),
		heartbeat: defaultHeartbeat,
		stop:      make(chan struct{}),
	}
	hash, err := computeSpecHash(spec.Seed, cfg)
	if err != nil {
		return nil, err
	}
	d.specHash = hash
	if backend == nil && spec.StateDir != "" {
		dir, err := store.OpenDir(spec.StateDir, store.DirOptions{})
		if err != nil {
			return nil, fmt.Errorf("opening state dir: %w", err)
		}
		backend = dir
		d.ownBackend = true
	}
	d.backend = backend

	sinks := []divot.TelemetrySink{divot.NewMetricsSink(d.reg), alertSink{d}}
	if spec.AuditLog != "" {
		f, err := os.Create(spec.AuditLog)
		if err != nil {
			return nil, fmt.Errorf("opening audit log: %w", err)
		}
		d.auditFile = f
		d.audit = divot.NewAuditLog(f).WithClock(time.Now)
		sinks = append(sinks, d.audit)
	} else if d.backend != nil {
		// With a state dir and no flat audit file, the audit trail goes to
		// the backend's segmented log: same rendered lines, but rotation and
		// compaction bound its growth and a torn tail survives a crash.
		d.audit = divot.NewAuditLog(&auditAppender{d: d}).WithClock(time.Now)
		sinks = append(sinks, d.audit)
	}
	sys.SetSink(divot.TelemetryFanout(sinks...))

	d.roundDur = d.reg.Histogram("divot_round_duration_seconds",
		"Wall-clock duration of one monitoring round.",
		telemetry.DurationBuckets, "link")
	d.overruns = d.reg.Counter("divot_scheduler_overruns_total",
		"Rounds that took longer than the bus's monitoring interval.", "link")
	d.shardDepth = d.reg.Gauge("divot_scheduler_shard_depth",
		"Buses due or overdue on a scheduler shard when it starts a round.", "shard")
	d.cacheHits = d.reg.Counter("divot_attest_cache_hits_total",
		"Attestation requests answered from the cached last-round view.", "link")
	d.cacheMiss = d.reg.Counter("divot_attest_cache_misses_total",
		"Attestation requests that re-measured the bus.", "link")
	d.storeErrs = d.reg.Counter("divot_store_errors_total",
		"Durable-state operations that failed (by operation); the daemon keeps running.", "op")
	d.streamSubs = d.reg.Gauge("divot_stream_subscribers",
		"Live event-stream subscribers (binary /v1/stream and per-link SSE).").With()
	d.streamCoalesced = d.reg.Counter("divot_stream_coalesced_total",
		"Periodic events folded into a fresher pending one on a full subscriber queue.").With()
	d.streamDropped = d.reg.Counter("divot_stream_dropped_total",
		"Events lost outright to a full subscriber queue.").With()
	d.maxStale = time.Duration(spec.MaxStalenessMS) * time.Millisecond

	for _, b := range spec.Buses {
		link, err := sys.NewLink(b.ID)
		if err != nil {
			return nil, err
		}
		reactor, err := divot.NewReactor(divot.DefaultReactionPolicy())
		if err != nil {
			return nil, err
		}
		reactor.SetSink(sys.Sink(), b.ID)
		ls := &linkState{
			id:       b.ID,
			link:     link,
			reactor:  reactor,
			interval: time.Duration(spec.interval(b)) * time.Millisecond,
			jitter:   sys.Stream("sched-" + b.ID),
			attack:   buildAttack(sys, b.ID, b.Attack),
			events:   divot.NewTelemetryBus(),
		}
		if b.Attack != nil {
			ls.attackAfter = b.Attack.AfterRounds
		}
		d.links = append(d.links, ls)
		d.byID[b.ID] = ls
	}
	return d, nil
}

// monitorOnce runs one round on a bus: mount the scripted attack when due,
// monitor, feed the reactor, observe the duration.
func (d *Daemon) monitorOnce(ls *linkState) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.attack != nil && !ls.attacked && ls.rounds.Load() >= ls.attackAfter {
		ls.attack.Apply(ls.link.Line)
		ls.attacked = true
		d.sys.Sink().Emit(divot.TelemetryEvent{
			Kind: divot.EventAttack, Link: ls.id,
			Round: ls.link.Rounds(), Detail: ls.attack.Name(),
		})
	} else if ls.attacked {
		// An adaptive adversary paces itself against the monitoring cadence:
		// advance it one step per round once mounted.
		if s, ok := ls.attack.(divot.AttackStepper); ok {
			s.Advance(ls.link.Line)
		}
	}
	start := time.Now()
	alerts, err := ls.link.MonitorOnce()
	d.roundDur.With(ls.id).Observe(time.Since(start).Seconds())
	if err == nil {
		h := ls.link.Health()
		ls.reactor.ObserveHealth(alerts, h)
		d.recordHistory(ls, alerts, h)
		if d.maxStale > 0 {
			// The round just measured both endpoints, so its verdict is a
			// free attestation view: cache it (after the reactor ran, so
			// any invalidation it triggered has already landed).
			ls.refreshCache(reportFromRound(ls, alerts, h), healthView(h))
		}
	}
	// Persist the bus's snapshot when this round changed durable state
	// (re-enrollment, gate move, health transition, reaction) — still under
	// ls.mu, so the written state is exactly the round's outcome.
	if d.backend != nil && ls.dirty.Swap(false) {
		d.saveSnapshot(ls, false)
	}
	ls.rounds.Add(1)
}

// reportFromRound condenses one monitoring round, whose alerts and
// post-round health h the caller already holds, into the attestation view a
// spot check would produce: only CPU-side alerts count, the same rule as
// Link.Authenticate. Caller holds ls.mu.
func reportFromRound(ls *linkState, alerts []divot.Alert, h divot.LinkHealth) attest.AuthReport {
	rep := attest.AuthReport{
		ID: ls.id, Accepted: true, Score: 1,
		Health: h.State().String(),
	}
	for _, a := range alerts {
		if a.Side != divot.SideCPU {
			continue
		}
		rep.Accepted = false
		switch a.Kind {
		case divot.AlertAuthFailure:
			rep.Score = a.Score
		case divot.AlertTamper:
			rep.Tampered = true
			rep.TamperPosition = a.Position
		}
	}
	return rep
}

// healthView renders one bus's /v1/health entry from its health snapshot
// (taken under ls.mu).
func healthView(h divot.LinkHealth) attest.LinkHealthView {
	return attest.LinkHealthViews([]divot.LinkHealth{h})[0]
}

// period draws the next jittered interval for a bus.
func (d *Daemon) period(ls *linkState) time.Duration {
	j := d.spec.JitterFrac
	if j <= 0 {
		return ls.interval
	}
	scale := ls.jitter.Uniform(1-j, 1+j)
	return time.Duration(float64(ls.interval) * scale)
}

// Addr returns the bound API address once Run is listening ("" before).
func (d *Daemon) Addr() string {
	d.listenerMu.Lock()
	defer d.listenerMu.Unlock()
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}

// Run serves the fleet until ctx is cancelled (SIGTERM/SIGINT in main), then
// shuts down gracefully: the schedulers drain their in-flight rounds, the
// HTTP server finishes open requests, every bus's snapshot is persisted, and
// the audit log is flushed.
//
// The socket opens before the fleet is warm: a daemon built with New binds,
// serves /readyz (and 503s with Retry-After everywhere else), restores or
// calibrates the fleet, and only then starts the schedulers — so a 1000-bus
// cold boot is observable and a warm boot measurably instant.
func (d *Daemon) Run(ctx context.Context, logw io.Writer) error {
	d.started = time.Now()
	ln, err := net.Listen("tcp", d.spec.Listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", d.spec.Listen, err)
	}
	d.listenerMu.Lock()
	d.listener = ln
	d.listenerMu.Unlock()

	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if err := d.Warmup(); err != nil {
		srv.Close() //nolint:errcheck // surfacing the warmup error
		return err
	}

	var wg sync.WaitGroup
	schedCtx, stopSched := context.WithCancel(ctx)
	defer stopSched()
	for i, links := range d.shardLinks() {
		wg.Add(1)
		go func(shard int, links []*linkState) {
			defer wg.Done()
			d.runShard(schedCtx, shard, links)
		}(i, links)
	}
	// Bound what a crash can lose: the audit log and both WALs buffer their
	// appends, so push them to stable storage on a short cadence. Graceful
	// shutdown still does the final flush below; this ticker only matters
	// for the SIGKILL path.
	if d.backend != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-schedCtx.Done():
					return
				case <-t.C:
					if d.audit != nil && d.auditFile == nil {
						if err := d.audit.Flush(); err != nil {
							d.storeErrs.With("flush_audit").Inc()
						}
					}
					if err := d.backend.Sync(); err != nil {
						d.storeErrs.With("sync").Inc()
					}
				}
			}
		}()
	}
	warm := d.warmN.Load()
	fmt.Fprintf(logw, "divotd: %d buses ready (%d restored warm, %d calibrated), serving on %s\n",
		len(d.links), warm, int64(len(d.links))-warm, ln.Addr())

	var runErr error
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			runErr = err
		}
	}

	// Graceful shutdown: stop scheduling, let in-flight rounds finish, tell
	// open event streams to finish (or Shutdown would wait on them forever),
	// then close the server and flush the audit trail.
	stopSched()
	wg.Wait()
	close(d.stop)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && runErr == nil {
		runErr = err
	}
	if d.audit != nil {
		if d.auditFile != nil {
			if err := d.audit.Close(d.auditFile); err != nil && runErr == nil {
				runErr = err
			}
		} else if err := d.audit.Flush(); err != nil && runErr == nil {
			runErr = err
		}
	}
	// Persist the fleet's final state (round counters included) and make the
	// store durable, so the next boot restarts warm exactly where this one
	// stopped. A crash skips all of this — that path is covered by the
	// per-round snapshot writes and the WAL's torn-tail recovery.
	if d.backend != nil {
		d.persistFleet()
		if d.ownBackend {
			if err := d.backend.Close(); err != nil && runErr == nil {
				runErr = err
			}
		} else if err := d.backend.Sync(); err != nil && runErr == nil {
			runErr = err
		}
	}
	fmt.Fprintf(logw, "divotd: shut down after %s\n", time.Since(d.started).Round(time.Millisecond))
	return runErr
}

// sortedLinks returns the fleet in id order.
func (d *Daemon) sortedLinks() []*linkState {
	out := make([]*linkState, len(d.links))
	copy(out, d.links)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
