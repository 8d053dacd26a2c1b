package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"divot"
	"divot/internal/attest"
	"divot/internal/pool"
	"divot/internal/store"
	"divot/internal/telemetry"
)

// histRingCap bounds each bus's in-memory score history; older samples fall
// off (with a state_dir the history WAL retains more, bounded by its segment
// budget). It is sized to the WAL hydration depth so a warm restart refills
// the ring exactly.
const histRingCap = 256

// linkSnapshot is the JSON payload persisted per bus: the engine's durable
// state plus the reactor's anti-ratchet state. Persisting them together means
// a restart can neither forget an enrollment nor launder an escalation.
type linkSnapshot struct {
	Link    divot.LinkSnapshot    `json:"link"`
	Reactor divot.ReactorSnapshot `json:"reactor"`
	// StreamSeq is the bus's event-stream sequence counter at snapshot time,
	// and CleanSeq whether the snapshot was a graceful-shutdown one (the
	// counter is then exact). A restart seeds the rebuilt bus from these so
	// resume cursors held by stream subscribers stay meaningful: exactly after
	// a clean shutdown, and past a crash-slack margin otherwise — a crash may
	// have published events after the last snapshot, and reissuing their
	// sequence numbers would make subscribers silently skip new events.
	StreamSeq uint64 `json:"stream_seq,omitempty"`
	CleanSeq  bool   `json:"clean_seq,omitempty"`
}

// seqCrashSlack is how far past a non-clean snapshot's StreamSeq a restart
// seeds the stream sequence space. It over-estimates how many events one bus
// plausibly publishes between two snapshot writes; overshooting is safe (a
// resuming subscriber sees an honest gap), undershooting would silently
// replay sequence numbers.
const seqCrashSlack = 64

// histRecord is one history WAL record: a HistorySample tagged with its bus.
type histRecord struct {
	Link string `json:"link"`
	attest.HistorySample
}

// computeSpecHash fingerprints everything that shapes enrollment: the fleet
// seed plus the engine and line configuration. The engine's Parallelism is
// zeroed first — results are bit-identical at every worker count, so
// changing workers must not invalidate a fleet's snapshots. Scheduling fields
// (intervals, jitter, listen address, attack scripts, audit paths) do not
// participate either: they change when rounds run, not what a fingerprint
// looks like.
func computeSpecHash(seed uint64, cfg divot.Config) (string, error) {
	cfg.Engine.Parallelism = 0
	raw, err := json.Marshal(struct {
		Seed   uint64       `json:"seed"`
		Config divot.Config `json:"config"`
	}{seed, cfg})
	if err != nil {
		return "", fmt.Errorf("hashing fleet spec: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Warmup brings every bus to calibrated: restored from a validated enrollment
// snapshot when the backend holds one for the current spec hash, cold
// calibrated otherwise. A snapshot that is missing, corrupt, stale, or fails
// engine validation is never trusted — the bus silently falls back to cold
// calibration. Like calibrateFleet before it, each link's telemetry is
// buffered privately and drained in spec order, so startup produces the same
// audit byte sequence at every worker count. Once it has succeeded, further
// calls do nothing.
func (d *Daemon) Warmup() error {
	if d.warmed {
		return nil
	}
	shared := d.sys.Sink()
	n := len(d.links)
	errs := make([]error, n)
	warm := make([]bool, n)
	recs := make([]*divot.TelemetryRecorder, n)
	for i, ls := range d.links {
		recs[i] = &divot.TelemetryRecorder{}
		ls.link.SetSink(recs[i])
	}
	// Cold start fans out across links, one link per worker at the engine
	// Parallelism; each link enrolls on its worker's goroutine. Results are
	// bit-identical at any worker count.
	pool.Run(n, pool.Workers(d.sys.Config().Engine.Parallelism), func(_, i int) {
		ls := d.links[i]
		if d.tryRestore(ls) {
			warm[i] = true
			d.warmN.Add(1)
			d.calibratedN.Add(1)
			return
		}
		if errs[i] = ls.link.Calibrate(); errs[i] == nil {
			d.calibratedN.Add(1)
		}
	})
	for i, ls := range d.links {
		ls.link.SetSink(shared)
		recs[i].DrainTo(shared)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("calibrating bus %q: %w", d.links[i].id, err)
		}
	}
	if d.backend != nil {
		// Persist the enrollments this boot produced (cold-calibrated buses
		// have no snapshot yet, or a rejected one worth replacing), refill
		// the history rings from the WAL, and make it all durable before
		// declaring ready — a crash after this point restarts warm.
		for i, ls := range d.links {
			if !warm[i] {
				ls.mu.Lock()
				d.saveSnapshot(ls, false)
				ls.mu.Unlock()
			}
		}
		d.hydrateHistory()
		if err := d.backend.Sync(); err != nil {
			d.storeErrs.With("sync").Inc()
		}
	}
	d.warmed = true
	d.ready.Store(true)
	return nil
}

// tryRestore loads, validates, and installs a bus's enrollment snapshot.
// Any failure — no snapshot, checksum damage, stale spec hash, payload that
// fails engine validation — reports false and the caller calibrates cold.
func (d *Daemon) tryRestore(ls *linkState) bool {
	if d.backend == nil {
		return false
	}
	raw, err := d.backend.LoadSnapshot(ls.id, d.specHash)
	if err != nil {
		if !errors.Is(err, store.ErrNoSnapshot) {
			d.storeErrs.With("load_snapshot").Inc()
		}
		return false
	}
	var snap linkSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		d.storeErrs.With("load_snapshot").Inc()
		return false
	}
	// Validate the reactor state first: Link.Restore mutates on success, and
	// a bus restored without its anti-ratchet streaks would let a restart
	// launder an escalation.
	if err := ls.reactor.Restore(snap.Reactor); err != nil {
		d.storeErrs.With("load_snapshot").Inc()
		return false
	}
	if err := ls.link.Restore(snap.Link); err != nil {
		d.storeErrs.With("load_snapshot").Inc()
		return false
	}
	ls.rounds.Store(snap.Link.Rounds)
	// Continue the predecessor's stream sequence space. After a clean
	// shutdown the persisted counter is exact, so resumed subscribers pick up
	// with no gap; after a crash events may have been published beyond the
	// snapshot, so jump the counter past a slack margin — a resuming
	// subscriber then sees a visible sequence jump (an honest ResumeGapError)
	// instead of silently skipping events whose numbers were reissued.
	if snap.CleanSeq {
		ls.events.SeedSeq(snap.StreamSeq)
	} else if snap.StreamSeq > 0 {
		ls.events.SeedSeq(snap.StreamSeq + seqCrashSlack)
	}
	return true
}

// saveSnapshot persists one bus's durable state. Caller holds ls.mu. clean
// marks a graceful-shutdown snapshot whose stream sequence counter is final
// (see linkSnapshot.CleanSeq). Failures are counted, not fatal: the daemon
// keeps monitoring and the next state-changing round retries.
func (d *Daemon) saveSnapshot(ls *linkState, clean bool) {
	if d.backend == nil {
		return
	}
	link, err := ls.link.Snapshot()
	if err != nil {
		d.storeErrs.With("save_snapshot").Inc()
		return
	}
	payload, err := json.Marshal(linkSnapshot{
		Link: link, Reactor: ls.reactor.Snapshot(),
		StreamSeq: ls.events.Published(), CleanSeq: clean,
	})
	if err != nil {
		d.storeErrs.With("save_snapshot").Inc()
		return
	}
	if err := d.backend.SaveSnapshot(ls.id, d.specHash, payload); err != nil {
		d.storeErrs.With("save_snapshot").Inc()
	}
}

// persistFleet snapshots every bus (graceful-shutdown path, and the warm
// restart e2e's stand-in for "the daemon had persisted before the kill").
// Run calls it after the schedulers have drained and open streams were told
// to finish, so the persisted stream sequence counters are final — the
// snapshots are marked clean and the next boot resumes the sequence space
// exactly.
func (d *Daemon) persistFleet() {
	for _, ls := range d.links {
		ls.mu.Lock()
		d.saveSnapshot(ls, true)
		ls.mu.Unlock()
	}
}

// recordHistory condenses one error-free monitoring round into a history
// sample: into the bus's bounded in-memory ring always, and into the history
// WAL when a backend is attached. The WAL record is rendered by hand into a
// reusable per-link buffer — the monitoring hot path stays allocation-free.
// Caller holds ls.mu.
func (d *Daemon) recordHistory(ls *linkState, alerts []divot.Alert, h divot.LinkHealth) {
	var auth, tamper bool
	for _, a := range alerts {
		switch a.Kind {
		case divot.AlertAuthFailure:
			auth = true
		case divot.AlertTamper:
			tamper = true
		}
	}
	verdict := "ok"
	switch {
	case auth && tamper:
		verdict = "auth-failure+tamper"
	case auth:
		verdict = "auth-failure"
	case tamper:
		verdict = "tamper"
	}
	sample := attest.HistorySample{
		Round:    ls.link.Rounds(),
		Score:    h.CPU.LastScore,
		Health:   h.State().String(),
		Reaction: ls.reactor.State().String(),
		Verdict:  verdict,
	}

	ls.histMu.Lock()
	ls.hist[ls.histIdx] = sample
	ls.histIdx = (ls.histIdx + 1) % histRingCap
	if ls.histLen < histRingCap {
		ls.histLen++
	}
	if d.backend != nil {
		b := ls.histBuf[:0]
		b = append(b, `{"link":`...)
		b = telemetry.AppendJSONString(b, ls.id)
		b = append(b, `,"round":`...)
		b = strconv.AppendUint(b, sample.Round, 10)
		b = append(b, `,"score":`...)
		b = strconv.AppendFloat(b, sample.Score, 'g', -1, 64)
		b = append(b, `,"health":`...)
		b = telemetry.AppendJSONString(b, sample.Health)
		b = append(b, `,"reaction":`...)
		b = telemetry.AppendJSONString(b, sample.Reaction)
		b = append(b, `,"verdict":`...)
		b = telemetry.AppendJSONString(b, sample.Verdict)
		b = append(b, '}')
		ls.histBuf = b
		if err := d.backend.AppendHistory(b); err != nil {
			d.storeErrs.With("append_history").Inc()
		}
	}
	ls.histMu.Unlock()
}

// snapshotHistory copies a bus's retained history, oldest first.
func (ls *linkState) snapshotHistory() []attest.HistorySample {
	ls.histMu.Lock()
	defer ls.histMu.Unlock()
	out := make([]attest.HistorySample, ls.histLen)
	start := ls.histIdx - ls.histLen
	if start < 0 {
		start += histRingCap
	}
	for i := 0; i < ls.histLen; i++ {
		out[i] = ls.hist[(start+i)%histRingCap]
	}
	return out
}

// pushHistory appends a recovered sample to the ring (warm-restart hydration).
func (ls *linkState) pushHistory(s attest.HistorySample) {
	ls.histMu.Lock()
	ls.hist[ls.histIdx] = s
	ls.histIdx = (ls.histIdx + 1) % histRingCap
	if ls.histLen < histRingCap {
		ls.histLen++
	}
	ls.histMu.Unlock()
}

// hydrateHistory refills the per-bus history rings from the WAL. Records of
// buses no longer in the spec, damaged records, and torn stretches are
// skipped — history recovery is best-effort and never blocks startup.
func (d *Daemon) hydrateHistory() {
	_, err := d.backend.ReplayHistory(func(rec []byte) error {
		var r histRecord
		if json.Unmarshal(rec, &r) != nil {
			return nil
		}
		if ls, ok := d.byID[r.Link]; ok {
			ls.pushHistory(r.HistorySample)
		}
		return nil
	})
	if err != nil {
		d.storeErrs.With("replay_history").Inc()
	}
}

// auditAppender adapts the backend's segmented audit log to io.Writer so the
// existing AuditLog renderer can feed it. The bufio layer above hands over
// arbitrary chunks; the appender reassembles lines and appends each complete
// one as one WAL record.
type auditAppender struct {
	d   *Daemon
	buf []byte
}

// Write implements io.Writer.
func (a *auditAppender) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	used := 0
	for i := used; i < len(a.buf); i++ {
		if a.buf[i] != '\n' {
			continue
		}
		if err := a.d.backend.AppendAudit(a.buf[used:i]); err != nil {
			a.d.storeErrs.With("append_audit").Inc()
		}
		used = i + 1
	}
	a.buf = append(a.buf[:0], a.buf[used:]...)
	return len(p), nil
}
