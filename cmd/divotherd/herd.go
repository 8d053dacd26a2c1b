package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"divot/client"
	"divot/internal/attest"
	"divot/internal/ring"
	"divot/internal/telemetry"
)

// daemonAddr names one divotd instance under the herd's supervision.
type daemonAddr struct {
	Name string
	Addr string
}

// herdConfig is the aggregator's runtime configuration (flags in main).
type herdConfig struct {
	Listen        string
	FederationID  string
	Daemons       []daemonAddr
	ProbeInterval time.Duration
	MaxInFlight   int
	Replicas      int
	// Timeout is the per-attempt timeout of every upstream call.
	Timeout time.Duration
	// Retry overrides the upstream retry policy when non-zero.
	Retry client.RetryPolicy
}

// shard is one supervised divotd instance and the herd's view of it. All
// mutable fields are guarded by Herd.mu; the client is immutable and called
// outside the lock.
type shard struct {
	name string
	addr string
	c    *client.Client

	up bool
	// buses is the instance's fleet as last discovered (empty while the
	// instance has never been reachable).
	buses map[string]bool
	// fleetOK mirrors the instance's own /healthz verdict.
	fleetOK bool
	// lastErr is the most recent probe or fan-out failure ("" while up).
	lastErr string

	// The shard's metric series, resolved once in NewHerd. The probe,
	// liveness and assignment series are written by the first probe anyway;
	// the other fan-out series resolve on their first observation, so
	// /metrics lists only the series a daemon has used.
	upGauge, busesGauge              *telemetry.Gauge
	probeDur                         *telemetry.Histogram
	attestDur, historyDur, streamDur *series[telemetry.Histogram]
}

// series resolves one labelled metric series on first use and keeps the
// handle, so a hot path builds no label key per observation.
type series[T any] struct {
	resolve func() *T
	p       atomic.Pointer[T]
}

func newSeries[T any](resolve func() *T) *series[T] { return &series[T]{resolve: resolve} }

func (s *series[T]) get() *T {
	if p := s.p.Load(); p != nil {
		return p
	}
	p := s.resolve()
	s.p.Store(p)
	return p
}

// Herd supervises a pack of divotd instances: it discovers each daemon's
// fleet, assigns every bus to a daemon on a consistent-hash ring, fans
// attestation requests out across the shards with a bounded in-flight
// budget, merges the verdicts back into request order, and re-balances
// assignments the moment a daemon dies or rejoins. A shard failure is never
// papered over — the affected buses come back in the response's
// partial-error envelope, so the herd cannot fabricate an OK it did not
// measure.
type Herd struct {
	cfg   herdConfig
	multi *client.Multi
	// ring holds every configured daemon permanently; liveness and bus
	// ownership are applied as a Pick predicate at assignment time. That
	// makes re-balance a pure function of the (membership, liveness) pair:
	// a dead daemon's buses land exactly where a ring built without it
	// would put them, and its rejoin restores the original assignment.
	ring *ring.Ring
	reg  *telemetry.Registry

	// shards and names (sorted) are fixed by NewHerd; a shard's mutable
	// fields are guarded by mu.
	shards map[string]*shard
	names  []string

	mu sync.RWMutex
	// buses is the sorted union of every shard's discovered fleet — the
	// herd's fleet order for whole-fleet attests.
	buses []string
	// owners maps a bus to the sorted names of the shards serving it.
	owners map[string][]string
	// assigned maps each bus to the daemon serving it, and counts holds
	// each daemon's share. assignLocked rebuilds both whenever liveness or
	// a fleet changes, so a request reads the table instead of walking the
	// ring for every bus.
	assigned map[string]string
	counts   map[string]int

	started time.Time

	complete, partial *series[telemetry.Counter]
	rebalances        *telemetry.Counter
}

// NewHerd builds the aggregator and runs the initial discovery: every
// configured daemon is probed for liveness, federation membership, and its
// bus set. Unreachable daemons start in the down state (the prober revives
// them); at least one daemon must be reachable. A reachable daemon whose
// federation id contradicts the herd's is a configuration error and refuses
// startup.
func NewHerd(ctx context.Context, cfg herdConfig) (*Herd, error) {
	h, err := newHerd(cfg)
	if err != nil {
		return nil, err
	}
	if err := h.probeOnce(ctx); err != nil {
		return nil, err
	}
	if !h.anyUp() {
		return nil, fmt.Errorf("none of the %d daemons is reachable", len(cfg.Daemons))
	}
	return h, nil
}

// newHerd builds the aggregator with every daemon down and undiscovered.
func newHerd(cfg herdConfig) (*Herd, error) {
	if len(cfg.Daemons) == 0 {
		return nil, fmt.Errorf("no daemons given (use -daemons url[,url...])")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	h := &Herd{
		cfg:     cfg,
		multi:   client.NewMulti(cfg.MaxInFlight),
		ring:    ring.New(cfg.Replicas),
		reg:     telemetry.NewRegistry(),
		shards:  make(map[string]*shard, len(cfg.Daemons)),
		owners:  make(map[string][]string),
		started: time.Now(),
	}
	shardBuses := h.reg.Gauge("divotherd_shard_buses",
		"Buses currently assigned to a daemon by the consistent-hash ring.", "daemon")
	daemonUp := h.reg.Gauge("divotherd_daemon_up",
		"1 while the daemon answers health probes, 0 while it is considered dead.", "daemon")
	fanoutDur := h.reg.Histogram("divotherd_fanout_seconds",
		"Wall-clock duration of one fanned-out upstream call.",
		telemetry.DurationBuckets, "daemon", "op")
	attests := h.reg.Counter("divotherd_attest_total",
		"Federated attestation requests by outcome (complete/partial).", "outcome")
	h.complete = newSeries(func() *telemetry.Counter { return attests.With("complete") })
	h.partial = newSeries(func() *telemetry.Counter { return attests.With("partial") })
	h.rebalances = h.reg.Counter("divotherd_rebalance_total",
		"Assignment re-balances (a daemon died, rejoined, or changed its fleet).").With()

	for _, d := range cfg.Daemons {
		if h.shards[d.Name] != nil {
			return nil, fmt.Errorf("duplicate daemon name %q", d.Name)
		}
		opts := []client.Option{client.WithUserAgent("divotherd/1")}
		if cfg.Timeout > 0 {
			opts = append(opts, client.WithTimeout(cfg.Timeout))
		}
		if cfg.Retry.MaxAttempts > 0 {
			opts = append(opts, client.WithRetryPolicy(cfg.Retry))
		}
		c, err := client.New(d.Addr, opts...)
		if err != nil {
			return nil, fmt.Errorf("daemon %s: %w", d.Name, err)
		}
		name := d.Name
		fanout := func(op string) *series[telemetry.Histogram] {
			return newSeries(func() *telemetry.Histogram { return fanoutDur.With(name, op) })
		}
		h.shards[name] = &shard{
			name: name, addr: d.Addr, c: c, buses: map[string]bool{},
			upGauge:    daemonUp.With(name),
			busesGauge: shardBuses.With(name),
			probeDur:   fanoutDur.With(name, "probe"),
			attestDur:  fanout("attest"),
			historyDur: fanout("history"),
			streamDur:  fanout("stream"),
		}
		h.names = append(h.names, name)
		h.multi.Set(name, c)
		h.ring.Add(name)
	}
	sort.Strings(h.names)
	return h, nil
}

// probeOnce runs one liveness sweep: every daemon's /healthz is probed
// concurrently; a daemon coming up (re)discovers its bus set, a daemon going
// down is removed from assignment. Probe failures are per-daemon state, not
// errors — the only error is a federation-id contradiction, and only during
// the initial discovery (NewHerd); later contradictions keep the daemon
// down.
func (h *Herd) probeOnce(ctx context.Context) error {
	outcomes := h.multi.Health(ctx)
	var firstErr error
	changed := false
	for name, o := range outcomes {
		timer := time.Now()
		switch {
		case o.Err != nil:
			if h.setDown(name, o.Err.Error()) {
				changed = true
			}
		case h.fedMismatch(o.View.FederationID):
			err := fmt.Errorf("daemon %s belongs to federation %q, this herd is %q",
				name, o.View.FederationID, h.cfg.FederationID)
			if firstErr == nil {
				firstErr = err
			}
			if h.setDown(name, err.Error()) {
				changed = true
			}
		default:
			wasUp := h.isUp(name)
			if !wasUp {
				// Revival: the bus set may have changed while it was away.
				links, err := h.shards[name].c.Links(ctx)
				if err != nil {
					h.setDown(name, err.Error())
					continue
				}
				h.setUp(name, links, o.View.FleetOK)
				changed = true
			} else {
				h.setFleetOK(name, o.View.FleetOK)
			}
		}
		h.shards[name].probeDur.Observe(time.Since(timer).Seconds())
	}
	if changed {
		h.rebalanced()
	}
	if h.anyUp() {
		return nil // a live majority beats a misconfigured straggler
	}
	return firstErr
}

// fedMismatch reports whether a daemon's federation id contradicts the
// herd's (empty on either side matches anything).
func (h *Herd) fedMismatch(daemonFed string) bool {
	return daemonFed != "" && h.cfg.FederationID != "" && daemonFed != h.cfg.FederationID
}

func (h *Herd) isUp(name string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.shards[name]
	return s != nil && s.up
}

func (h *Herd) anyUp() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.shards {
		if s.up {
			return true
		}
	}
	return false
}

// setDown marks a daemon dead, reporting whether that is a transition.
func (h *Herd) setDown(name, why string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.shards[name]
	if s == nil {
		return false
	}
	trans := s.up
	s.up = false
	s.fleetOK = false
	s.lastErr = why
	s.upGauge.Set(0)
	if trans {
		h.assignLocked()
	}
	return trans
}

// setUp installs a revived daemon's bus set and recomputes the owner index
// and the assignment table.
func (h *Herd) setUp(name string, links []client.LinkSummary, fleetOK bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.shards[name]
	if s == nil {
		return
	}
	s.up = true
	s.fleetOK = fleetOK
	s.lastErr = ""
	s.buses = make(map[string]bool, len(links))
	for _, l := range links {
		s.buses[l.ID] = true
	}
	s.upGauge.Set(1)
	h.reindexLocked()
	h.assignLocked()
}

func (h *Herd) setFleetOK(name string, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.shards[name]; s != nil {
		s.fleetOK = ok
	}
}

// reindexLocked rebuilds the bus union and owner index. Caller holds h.mu.
func (h *Herd) reindexLocked() {
	h.owners = make(map[string][]string)
	for name, s := range h.shards {
		for b := range s.buses {
			h.owners[b] = append(h.owners[b], name)
		}
	}
	h.buses = make([]string, 0, len(h.owners))
	for b, names := range h.owners {
		sort.Strings(names)
		h.buses = append(h.buses, b)
	}
	sort.Strings(h.buses)
}

// rebalanced counts a re-balance after a liveness or fleet change and
// updates the divotherd_shard_buses gauges.
func (h *Herd) rebalanced() {
	h.rebalances.Inc()
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.shards {
		s.busesGauge.Set(float64(h.counts[s.name]))
	}
}

// assignLocked rebuilds the assignment table: each bus goes to the first
// live owner clockwise of its ring position. Caller holds h.mu for writing.
func (h *Herd) assignLocked() {
	h.assigned = make(map[string]string, len(h.buses))
	h.counts = make(map[string]int, len(h.shards))
	for _, b := range h.buses {
		name, ok := h.ring.Pick(b, func(name string) bool {
			s := h.shards[name]
			return s.up && s.buses[b]
		})
		if ok {
			h.assigned[b] = name
			h.counts[name]++
		}
	}
}

// Assign resolves a bus's current daemon.
func (h *Herd) Assign(bus string) (string, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	name, ok := h.assigned[bus]
	return name, ok
}

// plan is one fan-out: each daemon's targets in request order, the index of
// each of those targets in the request, and the targets no live daemon
// serves.
type plan struct {
	ids        map[string][]string
	pos        map[string][]int
	unassigned []string
}

// planFor groups targets by assigned daemon.
func (h *Herd) planFor(targets []string) plan {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p := plan{ids: make(map[string][]string), pos: make(map[string][]int)}
	for i, b := range targets {
		if name, ok := h.assigned[b]; ok {
			p.ids[name] = append(p.ids[name], b)
			p.pos[name] = append(p.pos[name], i)
		} else {
			p.unassigned = append(p.unassigned, b)
		}
	}
	return p
}

// Attest runs a federated batch attestation: targets are resolved against
// the fleet (every known bus when ids is empty), grouped by assigned daemon,
// fanned out concurrently under the in-flight budget, and merged back into
// request order with per-verdict shard attribution. A failing shard is
// marked down (re-balancing its buses for subsequent requests) and its buses
// are reported in the partial-error envelope of this response — never as
// fabricated verdicts.
func (h *Herd) Attest(ctx context.Context, ids []string) (attest.FederatedAttestResponse, *attest.Error) {
	var targets []string
	if len(ids) == 0 {
		h.mu.RLock()
		targets = append([]string(nil), h.buses...)
		h.mu.RUnlock()
	} else {
		h.mu.RLock()
		for _, id := range ids {
			if _, known := h.owners[id]; !known {
				h.mu.RUnlock()
				return attest.FederatedAttestResponse{}, &attest.Error{
					Code:    attest.CodeUnknownLink,
					Message: fmt.Sprintf("unknown bus %q", id),
				}
			}
		}
		h.mu.RUnlock()
		targets = ids
	}

	p := h.planFor(targets)
	start := time.Now()
	outcomes := h.multi.Attest(ctx, p.ids)
	elapsed := time.Since(start).Seconds()
	for name := range p.ids {
		h.shards[name].attestDur.get().Observe(elapsed)
	}

	// A daemon answers in request order, so each verdict goes straight to
	// its target's position; placed marks the positions a shard filled.
	results := make([]attest.AuthReport, len(targets))
	placed := make([]bool, len(targets))
	failed := make(map[string]error)
	rebalance := false
	for name, o := range outcomes {
		err := o.Err
		if err == nil {
			err = matchPlan(o.Resp.Results, p.ids[name])
		}
		if err != nil {
			failed[name] = err
			if h.setDown(name, err.Error()) {
				rebalance = true
			}
			continue
		}
		for k, rep := range o.Resp.Results {
			rep.Daemon = name
			results[p.pos[name][k]] = rep
			placed[p.pos[name][k]] = true
		}
	}
	if rebalance {
		h.rebalanced()
	}

	resp := attest.FederatedAttestResponse{
		Results:     results[:0],
		AllAccepted: true,
		Shards:      h.shardStatuses(),
	}
	for i := range results {
		if !placed[i] {
			continue // covered by the error envelope below
		}
		if !results[i].Accepted {
			resp.AllAccepted = false
		}
		resp.Results = append(resp.Results, results[i])
	}
	for _, name := range h.names {
		if err := failed[name]; err != nil {
			resp.Errors = append(resp.Errors, attest.ShardError{
				Daemon:  name,
				Code:    errCode(err),
				Message: err.Error(),
				Links:   p.ids[name],
			})
		}
	}
	if len(p.unassigned) > 0 {
		resp.Errors = append(resp.Errors, attest.ShardError{
			Code:    attest.CodeUnavailable,
			Message: "no live daemon serves these buses",
			Links:   p.unassigned,
		})
	}
	resp.Complete = len(resp.Results) == len(targets)
	if !resp.Complete {
		resp.AllAccepted = false
		h.partial.get().Inc()
	} else {
		h.complete.get().Inc()
	}
	return resp, nil
}

// matchPlan checks that a shard answered exactly its planned targets, in
// request order, as a daemon always does. Any other answer is a shard fault:
// none of its verdicts can be placed without guessing.
func matchPlan(got []attest.AuthReport, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("answered %d verdicts for %d planned buses", len(got), len(want))
	}
	for k := range got {
		if got[k].ID != want[k] {
			return fmt.Errorf("answered bus %q where the plan has %q at position %d",
				got[k].ID, want[k], k)
		}
	}
	return nil
}

// History proxies one bus's durable score history from its assigned daemon.
// The herd holds no history of its own — the samples live in the daemon's
// WAL — so this is a pure passthrough with the usual federation semantics:
// unknown buses are named as such, a bus whose every owner is down is
// unavailable, and a shard failing mid-call is marked down for re-balance.
func (h *Herd) History(ctx context.Context, id string) (attest.HistoryResponse, *attest.Error) {
	h.mu.RLock()
	_, known := h.owners[id]
	name, ok := h.assigned[id]
	h.mu.RUnlock()
	if !known {
		return attest.HistoryResponse{}, &attest.Error{
			Code:    attest.CodeUnknownLink,
			Message: fmt.Sprintf("unknown bus %q", id),
		}
	}
	if !ok {
		return attest.HistoryResponse{}, &attest.Error{
			Code:    attest.CodeUnavailable,
			Message: fmt.Sprintf("no live daemon serves bus %q", id),
		}
	}
	s := h.shards[name]
	start := time.Now()
	samples, err := s.c.History(ctx, id)
	s.historyDur.get().Observe(time.Since(start).Seconds())
	if err != nil {
		// A structured 4xx is the daemon answering fine (e.g. it dropped the
		// bus from its spec); only transport faults and 5xx mark it down.
		var aerr *client.APIError
		if !errors.As(err, &aerr) || aerr.Status >= 500 {
			if h.setDown(name, err.Error()) {
				h.rebalanced()
			}
		}
		return attest.HistoryResponse{}, &attest.Error{
			Code:    errCode(err),
			Message: fmt.Sprintf("daemon %s: %v", name, err),
		}
	}
	if samples == nil {
		samples = []attest.HistorySample{}
	}
	return attest.HistoryResponse{Link: id, Samples: samples}, nil
}

// errCode maps a fan-out failure to the wire error code that best describes
// it: structured daemon answers keep their code, everything else (transport
// faults, timeouts, dead daemons) is "unavailable".
func errCode(err error) string {
	var aerr *client.APIError
	if errors.As(err, &aerr) {
		return aerr.Code
	}
	return attest.CodeUnavailable
}

// shardStatuses snapshots every daemon's standing, sorted by name, with the
// current per-daemon assignment counts.
func (h *Herd) shardStatuses() []attest.ShardStatus {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]attest.ShardStatus, 0, len(h.names))
	for _, name := range h.names {
		s := h.shards[name]
		out = append(out, attest.ShardStatus{
			Daemon: s.name, Addr: s.addr, Up: s.up, Buses: h.counts[name],
		})
	}
	return out
}

// HerdHealth builds the federated /v1/health rollup: one probe plus one
// fleet-health fetch per daemon, each bus reported once by its assigned
// daemon.
func (h *Herd) HerdHealth(ctx context.Context) attest.HerdHealthResponse {
	// probeOnce refreshes liveness; a federation contradiction surfaces per
	// daemon in the rollup below, so its error needs no separate channel.
	_ = h.probeOnce(ctx)
	fleet := h.multi.FleetHealth(ctx)

	h.mu.RLock()
	defer h.mu.RUnlock()
	resp := attest.HerdHealthResponse{
		FederationID: h.cfg.FederationID,
		Daemons:      make([]attest.DaemonHealth, 0, len(h.shards)),
		Links:        []attest.LinkHealthView{},
		Complete:     true,
	}
	views := make(map[string]attest.LinkHealthView)
	for _, name := range h.names {
		s := h.shards[name]
		dh := attest.DaemonHealth{
			Daemon: name, Addr: s.addr, Up: s.up,
			Buses: len(s.buses), FleetOK: s.fleetOK, Error: s.lastErr,
		}
		fo := fleet[name]
		switch {
		case !s.up:
			resp.Complete = false
		case fo.Err != nil:
			resp.Complete = false
			dh.Error = fo.Err.Error()
		default:
			for _, lv := range fo.Links {
				if h.assigned[lv.ID] == name {
					views[lv.ID] = lv
				}
			}
		}
		resp.Daemons = append(resp.Daemons, dh)
	}
	for _, b := range h.buses {
		if lv, ok := views[b]; ok {
			resp.Links = append(resp.Links, lv)
		} else {
			resp.Complete = false
		}
	}
	return resp
}

// HealthSummary is the herd's own /healthz: fleet size is the bus union,
// fleet_ok demands every daemon up and every daemon's own fleet ok.
func (h *Herd) HealthSummary() attest.HealthView {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ok := true
	for _, s := range h.shards {
		if !s.up || !s.fleetOK {
			ok = false
		}
	}
	return attest.HealthView{
		Status:       "ok",
		Buses:        len(h.buses),
		FleetOK:      ok,
		UptimeS:      time.Since(h.started).Seconds(),
		FederationID: h.cfg.FederationID,
	}
}

// probeLoop re-probes the pack until ctx ends, reviving daemons that come
// back and retiring ones that die between requests.
func (h *Herd) probeLoop(ctx context.Context) {
	t := time.NewTicker(h.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.probeOnce(ctx) //nolint:errcheck // per-daemon state, not fatal
		}
	}
}
