package core

// The fault-tolerant monitoring protocol. The paper's bare §III round is
// measure → match → gate; one bad measurement closes a gate and one drifting
// comparator ages a link into permanent failure. This file hardens that round
// against instrument faults while keeping attacks detectable:
//
//   - confirm-on-suspect: a failed verdict triggers up to ConfirmRetries
//     immediate re-measurements; the majority over all of them decides. A
//     transient glitch (EMI burst, one-shot counter upset) loses the vote and
//     the round degrades to "suspect" — logged via health, no alert, gates
//     untouched. A real attack persists across the retries and still alerts.
//   - graceful degradation: a bin whose reconstruction saturates at a rail on
//     DeadBinStreak consecutive measurements is declared dead and masked;
//     matching repairs and renormalizes around the mask (fingerprint.BinMask)
//     and health reports DegradedResolution instead of the link failing.
//   - drift-guarded re-enrollment: each endpoint tracks a rolling window of
//     accepted scores. Slow global decay (aging, seasonal drift) refreshes
//     the enrolled fingerprint; abrupt or localized change — the attack
//     signature — refuses the refresh, so an interposer cannot ride in on
//     drift tolerance.

import (
	"fmt"

	"divot/internal/fingerprint"
	"divot/internal/telemetry"
)

// Robustness tunes the fault-tolerant monitoring protocol. The zero value
// disables every mechanism, reproducing the bare §III round.
type Robustness struct {
	// ConfirmRetries is how many immediate re-measurements confirm a failed
	// round before an alert is raised or a gate closed; the verdict is the
	// majority over the original measurement plus retries. 0 disables
	// confirmation.
	ConfirmRetries int
	// DeadBinStreak is how many consecutive rail-saturated sightings
	// declare an ETS bin dead and mask it. 0 disables masking.
	DeadBinStreak int
	// MaskGuard widens the scoring mask by this many bins on each side of
	// every dead bin, keeping smoothing leakage from repaired bins out of
	// the match.
	MaskGuard int
	// MinLiveBins is the minimum number of unmasked bins required to score
	// a measurement at all; below it the endpoint fails authentication
	// (too little fingerprint left to decide).
	MinLiveBins int
	// MaxMaskedFraction is the masked share of all bins beyond which the
	// endpoint's health reports failure rather than degradation.
	MaxMaskedFraction float64
	// Reenroll governs drift-guarded fingerprint refresh.
	Reenroll ReenrollPolicy
}

// ReenrollPolicy decides when a slowly drifting link may refresh its
// enrolled fingerprint — and, crucially, when it must not.
type ReenrollPolicy struct {
	// Enabled turns the mechanism on.
	Enabled bool
	// Window is the number of accepted scores in the rolling baseline.
	Window int
	// RefreshBelow triggers a refresh when the window mean decays below
	// this similarity while the remaining guards pass.
	RefreshBelow float64
	// Floor refuses refresh when the latest score is already below this —
	// change that deep is not "slow drift".
	Floor float64
	// MaxStep refuses refresh when any round-to-round score drop within
	// the window exceeds this — abrupt change is an attack signature.
	MaxStep float64
	// MaxContrast refuses refresh when the error function's peak-to-mean
	// contrast exceeds this — localized change (interposer, tap) is an
	// attack signature even when the score decay looks slow. 0 disables
	// the guard.
	MaxContrast float64
	// Cooldown is the minimum number of accepted rounds between refreshes
	// (and after initial calibration).
	Cooldown int
}

// DefaultRobustness enables the full hardened protocol with conservative
// settings: 2 confirmation retries (majority of 3), dead-bin masking after 2
// consecutive saturated sightings with a ±2 bin guard, and drift refresh
// once an 8-round baseline decays below 0.975 — but never on abrupt
// (>0.08/round), deep (<0.75), or localized (contrast >25× the live-bin
// mean) change. RefreshBelow sits between the clean baseline (~0.98 window
// mean, spread ~0.003) and the score at which drift starts crossing the auto
// tamper threshold (seed-dependent, as high as ~0.965), so a drifting link
// refreshes before it alarms; an unnecessary refresh on a merely unlucky
// clean window is harmless, since every anti-attack guard still applies.
func DefaultRobustness() Robustness {
	return Robustness{
		ConfirmRetries:    2,
		DeadBinStreak:     2,
		MaskGuard:         2,
		MinLiveBins:       32,
		MaxMaskedFraction: 0.25,
		Reenroll: ReenrollPolicy{
			Enabled:      true,
			Window:       8,
			RefreshBelow: 0.975,
			Floor:        0.75,
			MaxStep:      0.08,
			MaxContrast:  25,
			Cooldown:     16,
		},
	}
}

// resetRobustState clears the endpoint's robustness bookkeeping — fresh
// calibration means a fresh instrument-health picture.
func (e *Endpoint) resetRobustState(cfg Config) {
	e.bins = cfg.ITDR.Bins()
	e.satStreak = make([]int, e.bins)
	e.setMask(nil, cfg.Robust.MaskGuard)
	e.window = nil
	e.lastScore = 0
	e.lastPeakErr = 0
	e.lastContrast = 0
	e.reenrollments = 0
	e.suspectRounds = 0
	e.lastSuspect = false
	e.failures = 0
	e.sinceReenroll = 0
	e.autoThreshold = cfg.TamperThreshold == 0
	e.lastHealth = HealthOK
}

// setMask installs the endpoint's dead-bin mask and the scoring mask
// derived from it: mask widened by guard bins on each side (BinMask.Dilate).
// Every change to the mask goes through here, so the scoring paths —
// observe, SpotCheck, the multi-link round, health and re-enrollment — read
// a precomputed mask instead of dilating (and allocating) one per round.
func (e *Endpoint) setMask(m fingerprint.BinMask, guard int) {
	e.mask = m
	e.scoring = m.Dilate(guard)
}

// trackSaturation advances the per-bin saturation streaks and promotes bins
// that stayed rail-saturated for DeadBinStreak consecutive measurements into
// the persistent mask. Transient saturation (an EMI burst, a stuck round)
// resets and never masks — an attacker cannot hide a dent by saturating bins
// for a single measurement.
func (e *Endpoint) trackSaturation(sat []bool, rob Robustness) {
	if rob.DeadBinStreak <= 0 || len(sat) == 0 {
		return
	}
	if len(e.satStreak) != len(sat) {
		e.satStreak = make([]int, len(sat))
	}
	mask, grew := e.mask, false
	for i, s := range sat {
		if !s {
			e.satStreak[i] = 0
			continue
		}
		e.satStreak[i]++
		if e.satStreak[i] >= rob.DeadBinStreak && (mask == nil || !mask[i]) {
			if mask == nil {
				mask = fingerprint.NewBinMask(len(sat))
			}
			mask[i] = true
			grew = true
		}
	}
	if grew {
		e.setMask(mask, rob.MaskGuard)
	}
}

// roundView is one scored measurement of an endpoint.
type roundView struct {
	auth   fingerprint.AuthResult
	tv     fingerprint.TamperVerdict
	lowRes bool // too few live bins to decide anything
}

// observe takes one measurement and scores it against the enrollment with
// the endpoint's current mask: repair dead bins, smooth, match over the
// dilated live support. The whole round runs inside the endpoint's arena
// and workspace — nothing observed here outlives the call, so the buffers
// are recycled round after round.
func (l *Link) observe(e *Endpoint, enrolled fingerprint.IIP) roundView {
	rob := l.cfg.Robust
	meas := e.refl.MeasureInto(e.arena, e.observed, l.Env)
	e.trackSaturation(meas.Saturated, rob)
	f := e.pipeline.FromWaveformMaskedWith(&e.ws, meas.IIP, e.mask)
	v := roundView{
		auth: e.matcher.AuthenticateMasked(f, enrolled, e.scoring),
		tv:   e.detector.CheckMaskedWith(&e.ws, f, enrolled, e.scoring),
	}
	if live := e.bins - e.scoring.Count(); rob.MinLiveBins > 0 && live < rob.MinLiveBins {
		v.lowRes = true
	}
	return v
}

// monitorEndpoint runs the hardened round at one endpoint and returns the
// alerts it raises.
func (l *Link) monitorEndpoint(e *Endpoint) ([]Alert, error) {
	enrolled, ok := e.store.Lookup(enrollKey)
	if !ok {
		return nil, l.enrollmentLost(e)
	}
	rob := l.cfg.Robust

	v := l.observe(e, enrolled)
	authFail := !v.auth.Accepted || v.lowRes
	// When too little fingerprint is left the error field is mostly repair
	// residue; report the failure as an auth failure only.
	tamper := v.tv.Tampered && !v.lowRes
	score := v.auth.Score
	suspect := false
	retries := 0

	if (authFail || tamper) && rob.ConfirmRetries > 0 {
		retries = rob.ConfirmRetries
		failVotes, tamperVotes, votes := b2i(authFail), b2i(tamper), 1
		scoreSum := score
		for i := 0; i < rob.ConfirmRetries; i++ {
			cv := l.observe(e, enrolled)
			if !cv.auth.Accepted || cv.lowRes {
				failVotes++
			}
			if cv.tv.Tampered && !cv.lowRes {
				tamperVotes++
				v.tv = cv.tv // report the freshest tampered view
			}
			scoreSum += cv.auth.Score
			votes++
		}
		authFail = 2*failVotes > votes
		tamper = 2*tamperVotes > votes
		if !authFail && !tamper {
			// The failure did not reproduce: a transient fault, absorbed.
			suspect = true
			e.suspectRounds++
		} else {
			score = scoreSum / float64(votes)
		}
	}
	e.lastSuspect = suspect

	l.emit(telemetry.Event{
		Kind: telemetry.EventRound, Link: l.ID, Side: e.Side.String(),
		Round: l.rounds, Score: score, Retries: retries,
		To: roundVerdict(authFail, tamper, suspect),
	})
	if suspect {
		l.emit(telemetry.Event{
			Kind: telemetry.EventSuspect, Link: l.ID, Side: e.Side.String(),
			Round: l.rounds, Score: score, Retries: retries,
		})
	}

	var raised []Alert
	if authFail {
		e.failures++
		a := Alert{Side: e.Side, Kind: AlertAuthFailure, Score: score}
		raised = append(raised, a)
		l.emit(telemetry.Event{
			Kind: telemetry.EventAlert, Link: l.ID, Side: e.Side.String(),
			Round: l.rounds, Score: score, To: a.Kind.String(), Detail: a.String(),
		})
	}
	// Tamper detection still reports alongside auth failure: a severe attack
	// (wire tap) can break authentication *and* deserve a localized report.
	if tamper {
		a := Alert{
			Side: e.Side, Kind: AlertTamper,
			PeakError: v.tv.PeakError, Position: v.tv.Position,
		}
		raised = append(raised, a)
		l.emit(telemetry.Event{
			Kind: telemetry.EventAlert, Link: l.ID, Side: e.Side.String(),
			Round: l.rounds, Score: a.PeakError, To: a.Kind.String(), Detail: a.String(),
		})
	}
	// React (§III): the gate follows the authentication verdict. A tamper
	// alert alone does not close the gate — the paper escalates tampering to
	// system-level countermeasures — but it is reported.
	e.authenticated = !authFail
	l.gateSet(e, !authFail)
	e.lastScore = score
	e.lastPeakErr = v.tv.PeakError
	e.lastContrast = v.tv.Contrast

	// Only plainly accepted rounds feed the drift baseline: suspect rounds
	// carry a transient's garbage and confirmed failures are not drift.
	if !authFail && !tamper && !suspect {
		e.pushScore(v.auth.Score, rob.Reenroll.Window)
		e.sinceReenroll++
		if err := l.maybeReenroll(e, v); err != nil {
			return raised, err
		}
	}
	l.emitHealthTransition(e)
	return raised, nil
}

// roundVerdict names the confirmed outcome of one endpoint round.
func roundVerdict(authFail, tamper, suspect bool) string {
	switch {
	case authFail && tamper:
		return "auth-failure+tamper"
	case authFail:
		return "auth-failure"
	case tamper:
		return "tamper"
	case suspect:
		return "suspect"
	}
	return "ok"
}

// pushScore appends an accepted score to the rolling window. Once the
// window is full it shifts in place instead of reslicing, so the backing
// array is reused round after round.
func (e *Endpoint) pushScore(s float64, window int) {
	if window <= 0 {
		return
	}
	if len(e.window) < window {
		e.window = append(e.window, s)
		return
	}
	copy(e.window, e.window[len(e.window)-window+1:])
	e.window = e.window[:window]
	e.window[window-1] = s
}

// baseline returns the rolling-window mean (0 with no data).
func (e *Endpoint) baseline() float64 {
	if len(e.window) == 0 {
		return 0
	}
	var acc float64
	for _, s := range e.window {
		acc += s
	}
	return acc / float64(len(e.window))
}

// maybeReenroll applies the drift guards and refreshes the enrollment when
// every one of them reads "slow global drift".
func (l *Link) maybeReenroll(e *Endpoint, v roundView) error {
	pol := l.cfg.Robust.Reenroll
	if !pol.Enabled || len(e.window) < pol.Window || e.sinceReenroll < pol.Cooldown {
		return nil
	}
	if e.baseline() >= pol.RefreshBelow {
		return nil // no decay worth refreshing for
	}
	latest := e.window[len(e.window)-1]
	if latest < pol.Floor {
		return nil // too deep to be drift
	}
	for i := 1; i < len(e.window); i++ {
		if e.window[i-1]-e.window[i] > pol.MaxStep {
			return nil // abrupt drop inside the window: attack signature
		}
	}
	if pol.MaxContrast > 0 && v.tv.Contrast > pol.MaxContrast {
		return nil // localized error peak: attack signature
	}
	return l.reenroll(e)
}

// reenroll refreshes the endpoint's enrolled fingerprint from fresh averaged
// measurements (repaired over the persistent mask) and re-derives the auto
// tamper floor, exactly like calibration but without touching the other
// endpoint or the calibrated flag. Like calibration it streams every capture
// through the endpoint's arena, averager, workspace and error buffer; only
// the enrolled fingerprint owns its memory.
func (l *Link) reenroll(e *Endpoint) error {
	rob := l.cfg.Robust
	e.avg.Reset()
	for i := 0; i < l.cfg.EnrollMeasurements; i++ {
		m := e.refl.MeasureInto(e.arena, e.observed, l.Env)
		e.trackSaturation(m.Saturated, rob)
		e.avg.Add(m.IIP)
	}
	f, err := e.pipeline.FromAverage(&e.avg, e.mask)
	if err != nil {
		return fmt.Errorf("re-enrolling %s endpoint of link %q: %w", e.Side, l.ID, err)
	}
	if err := e.store.Enroll(enrollKey, f); err != nil {
		return fmt.Errorf("re-enrolling %s endpoint of link %q: %w", e.Side, l.ID, err)
	}
	if e.autoThreshold {
		// The probes score over the mask as dilated after enrollment, as a
		// Dilate taken here would: a bin masked mid-probe makes setMask
		// replace the widened scoring mask, not rewrite this one.
		scoring := e.scoring
		var floor float64
		for i := 0; i < tamperFloorProbes; i++ {
			m := e.refl.MeasureInto(e.arena, e.observed, l.Env)
			e.trackSaturation(m.Saturated, rob)
			fm := e.pipeline.FromWaveformMaskedWith(&e.ws, m.IIP, e.mask)
			e.errBuf = fingerprint.MaskedErrorFunctionInto(e.errBuf, fm, f, scoring)
			if v, _, _ := fingerprint.PeakError(e.errBuf); v > floor {
				floor = v
			}
		}
		if floor > 0 {
			e.detector.PeakThreshold = 3 * l.cfg.tamperScale() * floor
		}
	}
	e.window = e.window[:0]
	e.sinceReenroll = 0
	e.reenrollments++
	l.emit(telemetry.Event{
		Kind: telemetry.EventReenroll, Link: l.ID, Side: e.Side.String(),
		Round: l.rounds, Score: e.lastScore,
	})
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
