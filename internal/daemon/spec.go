package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"divot"
)

// Spec is the fleet specification divotd loads at startup: which buses to
// protect, how often to monitor each, where to listen, and (for experiments
// and smoke tests) scripted attacks mounted after a fixed round count.
type Spec struct {
	// Seed roots the fleet's random universe; runs with the same spec are
	// reproducible.
	Seed uint64 `json:"seed"`
	// Parallelism is the engine's worker bound (divot.Config.Engine
	// .Parallelism) over links and wires, cold start included: each link
	// enrolls, and each capture runs, on one goroutine. 0 = one worker per
	// CPU, 1 = sequential. Results, snapshots and the spec hash are the same
	// at every setting.
	Parallelism int `json:"parallelism"`
	// Listen is the HTTP API address; default "127.0.0.1:9720".
	Listen string `json:"listen"`
	// IntervalMS is the default monitoring period per bus in milliseconds;
	// default 100.
	IntervalMS int `json:"interval_ms"`
	// JitterFrac spreads each bus's period by ±frac (0..0.9) so a fleet's
	// rounds do not thundering-herd; default 0.
	JitterFrac float64 `json:"jitter_frac"`
	// SchedulerShards bounds the scheduler goroutines: the fleet is dealt
	// round-robin onto this many shards, each driving its buses off a
	// min-heap of due times. 0 = one shard per CPU; shards never exceed
	// the bus count.
	SchedulerShards int `json:"scheduler_shards"`
	// MaxStalenessMS lets POST /v1/attest and GET /v1/health answer from
	// each bus's cached last-round attestation view when it is younger
	// than this bound, instead of taking the bus lock and re-measuring.
	// 0 (the default) disables the cache: every request re-measures,
	// exactly the pre-cache semantics.
	MaxStalenessMS int `json:"max_staleness_ms"`
	// AuditLog is the JSONL audit file path; empty disables the flat-file
	// audit log (with a StateDir the audit trail still goes to the state
	// directory's segmented log).
	AuditLog string `json:"audit_log"`
	// StateDir, when non-empty, makes the daemon's state crash-safe: per-bus
	// enrollment snapshots, the score-history WAL, and a segmented audit log
	// live under this directory, and a restarted daemon warm-restores the
	// fleet from them — zero calibration rounds — instead of re-enrolling.
	// Snapshots are bound to the seed+configuration that produced them; a
	// spec change falls back to cold calibration per bus. Empty keeps the
	// daemon fully in-memory. Overridable with divotd -state-dir.
	StateDir string `json:"state_dir"`
	// AuthThreshold, when positive, overrides the engine's similarity
	// acceptance threshold (divot.Config.Engine.AuthThreshold, default
	// 0.70). This is the operating point `divotlab tune` records after
	// picking a threshold for a target false-positive rate on the
	// experiment grid; it participates in the durable-state spec hash, so
	// changing it recalibrates cold. 0 keeps the engine default.
	AuthThreshold float64 `json:"auth_threshold"`
	// FederationID labels this daemon as a member of a divotherd federation.
	// It is surfaced in /healthz and /v1/health so an aggregator (and its
	// operators) can tell at a glance which fleet a daemon believes it
	// belongs to; divotherd refuses to enroll a daemon whose federation id
	// disagrees with its own. Empty means "not federated" and matches any
	// aggregator. Overridable with divotd -federation-id.
	FederationID string `json:"federation_id"`
	// Buses are the protected links.
	Buses []BusSpec `json:"buses"`
}

// BusSpec describes one protected bus.
type BusSpec struct {
	// ID names the bus; unique within the fleet.
	ID string `json:"id"`
	// IntervalMS overrides the fleet monitoring period for this bus.
	IntervalMS int `json:"interval_ms"`
	// Attack, when non-nil, scripts a physical attack against this bus.
	Attack *AttackSpec `json:"attack"`
}

// AttackSpec scripts a physical attack mounted during the run.
type AttackSpec struct {
	// Kind selects the attack model: "interposer", "wiretap", "probe",
	// "module-swap", or "adaptive-tap" (a tap whose loading drifts slowly
	// between rounds, trying to hide inside the re-enrollment window; the
	// scheduler advances it one step per monitoring round).
	Kind string `json:"kind"`
	// AfterRounds mounts the attack once the bus has completed this many
	// monitoring rounds.
	AfterRounds uint64 `json:"after_rounds"`
	// Position is the attack location in meters from the CPU end (ignored
	// by module-swap). An interposer cuts the line, so it needs
	// 0 < position < line length; a wiretap, probe or adaptive-tap may sit
	// anywhere on the line, 0 ≤ position ≤ line length. Validate only knows
	// position ≥ 0; the daemon checks the upper bound against its line
	// configuration when it builds the fleet.
	Position float64 `json:"position"`
}

// checkPosition rejects an attack position the scripted attack cannot be
// mounted at on a line of the given length.
func (a *AttackSpec) checkPosition(length float64) error {
	switch a.Kind {
	case "interposer":
		if !(a.Position > 0 && a.Position < length) {
			return fmt.Errorf("interposer position must be strictly inside the %g m line (0 < position < %g), got %g",
				length, length, a.Position)
		}
	case "wiretap", "probe", "adaptive-tap":
		if !(a.Position >= 0 && a.Position <= length) {
			return fmt.Errorf("%s position must lie on the %g m line (0 <= position <= %g), got %g",
				a.Kind, length, length, a.Position)
		}
	}
	return nil
}

// attackKinds are the accepted AttackSpec.Kind values.
var attackKinds = map[string]bool{
	"interposer":   true,
	"wiretap":      true,
	"probe":        true,
	"module-swap":  true,
	"adaptive-tap": true,
}

// TrailingDataError reports content after the spec's JSON object.
type TrailingDataError struct {
	// Offset is the byte offset where the spec object ends.
	Offset int64
}

func (e *TrailingDataError) Error() string {
	return fmt.Sprintf("trailing data after the spec object (byte offset %d)", e.Offset)
}

// LoadSpec reads and validates a fleet spec file: exactly one JSON object,
// no unknown keys, no trailing content.
func LoadSpec(path string) (Spec, error) {
	var spec Spec
	if path == "" {
		return spec, fmt.Errorf("no fleet spec given (use -spec <file>)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("reading fleet spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("parsing fleet spec %s: %w", path, err)
	}
	// A spec is exactly one JSON object: a second document or stray bytes
	// after it would otherwise be ignored silently.
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return spec, fmt.Errorf("parsing fleet spec %s: %w", path, &TrailingDataError{Offset: end})
	}
	spec.applyDefaults()
	if err := spec.Validate(); err != nil {
		return spec, fmt.Errorf("fleet spec %s: %w", path, err)
	}
	return spec, nil
}

// applyDefaults fills the optional top-level fields.
func (s *Spec) applyDefaults() {
	if s.Listen == "" {
		s.Listen = "127.0.0.1:9720"
	}
	if s.IntervalMS == 0 {
		s.IntervalMS = 100
	}
}

// Validate rejects specs divotd cannot run.
func (s *Spec) Validate() error {
	if len(s.Buses) == 0 {
		return fmt.Errorf("no buses defined — a fleet needs at least one bus entry")
	}
	if s.IntervalMS < 0 {
		return fmt.Errorf("interval_ms must be positive, got %d", s.IntervalMS)
	}
	if s.JitterFrac < 0 || s.JitterFrac > 0.9 {
		return fmt.Errorf("jitter_frac must be in [0, 0.9], got %g", s.JitterFrac)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", s.Parallelism)
	}
	if s.SchedulerShards < 0 {
		return fmt.Errorf("scheduler_shards must be >= 0, got %d", s.SchedulerShards)
	}
	if s.MaxStalenessMS < 0 {
		return fmt.Errorf("max_staleness_ms must be >= 0, got %d", s.MaxStalenessMS)
	}
	if s.AuthThreshold < 0 || s.AuthThreshold >= 1 {
		return fmt.Errorf("auth_threshold must be in [0, 1), got %g", s.AuthThreshold)
	}
	seen := make(map[string]bool, len(s.Buses))
	for i, b := range s.Buses {
		if b.ID == "" {
			return fmt.Errorf("bus %d has no id", i)
		}
		if seen[b.ID] {
			return fmt.Errorf("duplicate bus id %q", b.ID)
		}
		seen[b.ID] = true
		if b.IntervalMS < 0 {
			return fmt.Errorf("bus %q: interval_ms must be positive, got %d", b.ID, b.IntervalMS)
		}
		if a := b.Attack; a != nil {
			if !attackKinds[a.Kind] {
				return fmt.Errorf("bus %q: unknown attack kind %q (want interposer, wiretap, probe, module-swap, or adaptive-tap)", b.ID, a.Kind)
			}
			if a.Position < 0 {
				return fmt.Errorf("bus %q: attack position must be >= 0, got %g", b.ID, a.Position)
			}
		}
	}
	return nil
}

// interval returns the effective monitoring period for a bus in milliseconds.
func (s *Spec) interval(b BusSpec) int {
	if b.IntervalMS > 0 {
		return b.IntervalMS
	}
	return s.IntervalMS
}

// buildAttack constructs the scripted attack for a bus (nil when none).
func buildAttack(sys *divot.System, id string, a *AttackSpec) divot.Attack {
	if a == nil {
		return nil
	}
	switch a.Kind {
	case "interposer":
		return divot.NewInterposer(a.Position)
	case "wiretap":
		return divot.NewWireTap(a.Position)
	case "probe":
		return divot.NewMagneticProbe(a.Position)
	case "module-swap":
		return divot.NewModuleSwap(sys.Config().Line, sys.Stream("attack-"+id))
	case "adaptive-tap":
		return divot.NewAdaptiveTap(a.Position)
	}
	return nil
}
