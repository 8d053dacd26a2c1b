package core

import (
	"errors"
	"fmt"

	"divot/internal/fingerprint"
	"divot/internal/memctl"
	"divot/internal/pool"
	"divot/internal/rng"
	"divot/internal/telemetry"
	"divot/internal/txline"
)

// MultiLink protects a bus as a bundle of wires, each with its own intrinsic
// IIP and its own pair of iTDRs, fusing per-wire similarities into one
// authentication decision per side (§IV-C / §VI: "monitoring multiple wires
// on a bus can exponentially increase authentication accuracy"). One fused
// gate per side drives the memory system, so a single compromised or
// swapped wire locks the whole bus.
type MultiLink struct {
	ID  string
	cfg Config
	// Wires are the per-wire protected links. Their individual gates are
	// unused; the fused gates below rule.
	Wires []*Link
	// CPUGate and ModuleGate reflect the fused two-way decision.
	CPUGate    *memctl.StaticGate
	ModuleGate *memctl.StaticGate
	// Alerts accumulates per-wire and fused alarms.
	Alerts []Alert

	calibrated bool

	// sink receives the bus-level telemetry events (fused alerts, fused gate
	// transitions); the wires carry the same sink for their instrument-level
	// events. rounds counts fused monitoring rounds.
	sink   telemetry.Sink
	rounds uint64
}

// NewMultiLink manufactures a bus of n wires.
func NewMultiLink(id string, cfg Config, lineCfg txline.Config, n int, stream *rng.Stream) (*MultiLink, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: multi-link needs at least one wire, got %d", n)
	}
	m := &MultiLink{
		ID:         id,
		cfg:        cfg,
		CPUGate:    memctl.NewStaticGate(false),
		ModuleGate: memctl.NewStaticGate(false),
	}
	for w := 0; w < n; w++ {
		l, err := NewLink(fmt.Sprintf("%s/w%d", id, w), cfg, lineCfg, stream.Child(fmt.Sprintf("wire-%d", w)))
		if err != nil {
			return nil, err
		}
		m.Wires = append(m.Wires, l)
	}
	return m, nil
}

// Calibrate enrolls every wire and opens the fused gates. Wires own disjoint
// lines and instruments, so enrollment fans out one wire per worker across
// the engine's Parallelism workers, each wire enrolling on its own
// goroutine, with results identical to enrolling in order.
func (m *MultiLink) Calibrate() error {
	errs := make([]error, len(m.Wires))
	recs, orig := m.maybeSwapRecorders()
	pool.Run(len(m.Wires), pool.Workers(m.cfg.Parallelism), func(_, w int) {
		errs[w] = m.Wires[w].Calibrate()
	})
	m.maybeDrainRecorders(recs, orig)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	m.calibrated = true
	m.CPUGate.Set(true)
	m.ModuleGate.Set(true)
	m.emit(telemetry.Event{Kind: telemetry.EventCalibrated, Link: m.ID, Round: m.rounds})
	return nil
}

// Calibrated reports whether enrollment has happened.
func (m *MultiLink) Calibrated() bool { return m.calibrated }

// gateFor returns the fused gate for a side.
func (m *MultiLink) gateFor(s Side) *memctl.StaticGate {
	if s == SideCPU {
		return m.CPUGate
	}
	return m.ModuleGate
}

// MonitorOnce measures every wire at both endpoints, fuses the per-wire
// similarities per side, drives the fused gates, and reports alarms.
// Per-wire scoring runs over the wire's live bins (dead-bin masking as on
// single links), tagged with the wire index. It returns a wrapped
// ErrNotCalibrated / ErrEnrollmentLost instead of monitoring an unenrolled
// bus; wire errors from one round are joined.
func (m *MultiLink) MonitorOnce() ([]Alert, error) {
	if !m.calibrated {
		err := fmt.Errorf("multi-link %q: %w", m.ID, ErrNotCalibrated)
		m.emit(telemetry.Event{
			Kind: telemetry.EventMonitorError, Link: m.ID,
			Round: m.rounds, Detail: err.Error(),
		})
		return nil, err
	}
	m.rounds++
	var raised []Alert
	for _, side := range []Side{SideCPU, SideModule} {
		// Wires are measured concurrently — each wire touches only its own
		// instrument and its own result slot — then scored, reported and
		// fused in wire order, so the round is bit-identical to the
		// sequential loop at any worker count. Wire telemetry buffers in
		// per-wire recorders across the fan-out and drains in wire order.
		scores := make([]float64, len(m.Wires))
		tampers := make([]*fingerprint.TamperVerdict, len(m.Wires))
		errs := make([]error, len(m.Wires))
		recs, orig := m.maybeSwapRecorders()
		pool.Run(len(m.Wires), pool.Workers(m.cfg.Parallelism), func(_, w int) {
			l := m.Wires[w]
			e := l.endpoint(side)
			enrolled, ok := e.store.Lookup(enrollKey)
			if !ok {
				errs[w] = fmt.Errorf("wire %d %s endpoint of multi-link %q: %w",
					w, side, m.ID, ErrEnrollmentLost)
				return
			}
			meas := e.refl.MeasureInto(e.arena, e.observed, l.Env)
			e.trackSaturation(meas.Saturated, l.cfg.Robust)
			f := e.pipeline.FromWaveformMaskedWith(&e.ws, meas.IIP, e.mask)
			scores[w] = fingerprint.MaskedSimilarity(f, enrolled, e.scoring)
			e.lastScore = scores[w]
			e.authenticated = scores[w] >= m.cfg.AuthThreshold
			if v := e.detector.CheckMaskedWith(&e.ws, f, enrolled, e.scoring); v.Tampered {
				tampers[w] = &v
			}
		})
		m.maybeDrainRecorders(recs, orig)
		if err := errors.Join(errs...); err != nil {
			m.emit(telemetry.Event{
				Kind: telemetry.EventMonitorError, Link: m.ID, Side: side.String(),
				Round: m.rounds, Detail: err.Error(),
			})
			return raised, err
		}
		tampered := false
		for w, v := range tampers {
			if v != nil {
				tampered = true
				a := Alert{
					Side: side, Kind: AlertTamper, Wire: w,
					PeakError: v.PeakError, Position: v.Position,
				}
				raised = append(raised, a)
				m.emit(telemetry.Event{
					Kind: telemetry.EventAlert, Link: m.ID, Side: side.String(),
					Round: m.rounds, Score: a.PeakError, To: a.Kind.String(), Detail: a.String(),
				})
			}
		}
		// Security rule: every wire must match (AND). The multi-wire
		// accuracy gain is exponential on the impostor side — a foreign
		// bus must match all n intrinsic profiles at once, probability
		// ~p^n — while a mean-style fusion would let one compromised wire
		// hide behind its healthy neighbours.
		worst, at := scores[0], 0
		for w, s := range scores {
			if s < worst {
				worst, at = s, w
			}
		}
		ok := worst >= m.cfg.AuthThreshold
		m.emit(telemetry.Event{
			Kind: telemetry.EventRound, Link: m.ID, Side: side.String(),
			Round: m.rounds, Score: worst,
			To: roundVerdict(!ok, tampered, false),
		})
		if !ok {
			a := Alert{Side: side, Kind: AlertAuthFailure, Wire: at, Score: worst}
			raised = append(raised, a)
			m.emit(telemetry.Event{
				Kind: telemetry.EventAlert, Link: m.ID, Side: side.String(),
				Round: m.rounds, Score: worst, To: a.Kind.String(), Detail: a.String(),
			})
		}
		gate := m.gateFor(side)
		was := gate.Authorized()
		gate.Set(ok)
		if was != ok {
			m.emit(telemetry.Event{
				Kind: telemetry.EventGate, Link: m.ID, Side: side.String(),
				Round: m.rounds, From: gateName(was), To: gateName(ok),
			})
		}
	}
	m.Alerts = append(m.Alerts, raised...)
	return raised, nil
}

// Health snapshots every wire's condition, one LinkHealth per wire.
func (m *MultiLink) Health() []LinkHealth {
	out := make([]LinkHealth, len(m.Wires))
	for w, l := range m.Wires {
		out[w] = l.Health()
	}
	return out
}

// endpoint returns the link's endpoint for a side.
func (l *Link) endpoint(s Side) *Endpoint {
	if s == SideCPU {
		return l.CPU
	}
	return l.Module
}
