package core

import "fmt"

// HealthState summarizes an endpoint's (or link's) instrument and protocol
// condition. States are ordered by severity; a link reports the worse of its
// two endpoints.
type HealthState int

const (
	// HealthOK: authenticating normally at full resolution.
	HealthOK HealthState = iota
	// HealthSuspect: the latest round's failure did not reproduce under
	// confirmation — a transient fault was absorbed.
	HealthSuspect
	// HealthDegraded: dead ETS bins are masked; authentication continues at
	// reduced resolution.
	HealthDegraded
	// HealthFailed: the endpoint no longer authenticates (confirmed failure)
	// or has lost too much resolution to decide.
	HealthFailed
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case HealthOK:
		return "ok"
	case HealthSuspect:
		return "suspect"
	case HealthDegraded:
		return "degraded"
	case HealthFailed:
		return "failed"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// EndpointHealth is one endpoint's condition snapshot.
type EndpointHealth struct {
	Side  Side
	State HealthState
	// MaskedBins is the persistent dead-bin count; MaskedFraction its share
	// of all ETS bins.
	MaskedBins     int
	MaskedFraction float64
	// DegradedResolution reports that matching runs over a reduced bin set.
	DegradedResolution bool
	// SuspectRounds counts rounds whose failures were absorbed as transient
	// by confirmation; LastSuspect marks the most recent round as one.
	SuspectRounds int
	LastSuspect   bool
	// Failures counts confirmed auth-failure rounds.
	Failures int
	// Reenrollments counts drift-guarded fingerprint refreshes.
	Reenrollments int
	// LastScore is the most recent (confirmed) similarity.
	LastScore float64
}

// health snapshots the endpoint's condition under the given robustness
// policy.
func (e *Endpoint) health(rob Robustness) EndpointHealth {
	h := EndpointHealth{
		Side:           e.Side,
		MaskedBins:     e.mask.Count(),
		MaskedFraction: e.mask.Fraction(),
		SuspectRounds:  e.suspectRounds,
		LastSuspect:    e.lastSuspect,
		Failures:       e.failures,
		Reenrollments:  e.reenrollments,
		LastScore:      e.lastScore,
	}
	h.DegradedResolution = h.MaskedBins > 0
	live := e.bins - e.scoring.Count()
	switch {
	case !e.authenticated,
		rob.MaxMaskedFraction > 0 && h.MaskedFraction > rob.MaxMaskedFraction,
		rob.MinLiveBins > 0 && h.MaskedBins > 0 && live < rob.MinLiveBins:
		h.State = HealthFailed
	case h.DegradedResolution:
		h.State = HealthDegraded
	case e.lastSuspect:
		h.State = HealthSuspect
	default:
		h.State = HealthOK
	}
	return h
}

// LinkHealth is a link's condition: both endpoints plus the identifiers the
// facade aggregates by. The zero value reads as a fully healthy link.
type LinkHealth struct {
	ID     string
	CPU    EndpointHealth
	Module EndpointHealth
}

// State is the link's overall condition — the worse endpoint.
func (h LinkHealth) State() HealthState {
	if h.Module.State > h.CPU.State {
		return h.Module.State
	}
	return h.CPU.State
}

// Degraded reports whether either endpoint runs at reduced resolution.
func (h LinkHealth) Degraded() bool {
	return h.CPU.DegradedResolution || h.Module.DegradedResolution
}

// SuspectRound reports whether the most recent round was absorbed as a
// transient at either endpoint.
func (h LinkHealth) SuspectRound() bool {
	return h.CPU.LastSuspect || h.Module.LastSuspect
}

// String renders the link's condition.
func (h LinkHealth) String() string {
	return fmt.Sprintf("%s: %s (cpu=%s module=%s, masked %d/%d bins)",
		h.ID, h.State(), h.CPU.State, h.Module.State,
		h.CPU.MaskedBins, h.Module.MaskedBins)
}

// Health snapshots the link's condition after the most recent round.
func (l *Link) Health() LinkHealth {
	return LinkHealth{
		ID:     l.ID,
		CPU:    l.CPU.health(l.cfg.Robust),
		Module: l.Module.health(l.cfg.Robust),
	}
}
