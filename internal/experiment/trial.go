package experiment

import (
	"fmt"

	"divot/internal/attack"
	"divot/internal/core"
	"divot/internal/fault"
	"divot/internal/react"
	"divot/internal/rng"
	"divot/internal/txline"
)

// Trial classes: attacked trials measure the true-positive side of a cell,
// clean trials the false-positive side. Clean trials depend only on the
// cell's environmental axes, so the runner dedupes them across attack kinds.
const (
	classAttacked = "attacked"
	classClean    = "clean"
)

// RoundRecord is one monitoring round's recorded statistics. The aggregator
// sweeps decision thresholds over these traces offline; the live protocol's
// alerts (also recorded) are the operating point.
type RoundRecord struct {
	// Round is 1-based. In attacked trials the attack mounts at round
	// PreRounds+1, before that round's measurements.
	Round int `json:"round"`

	// VictimScore is the lowest endpoint similarity on the attacked link
	// (link 0); VictimRatio the highest PeakError/TamperThreshold there.
	VictimScore float64 `json:"victim_score"`
	VictimRatio float64 `json:"victim_ratio"`

	// MinScore and MaxRatio take the same extremes across the whole fleet —
	// in clean trials these are the per-round negative statistics.
	MinScore float64 `json:"min_score"`
	MaxRatio float64 `json:"max_ratio"`

	// AuthAlerts and TamperAlerts count the victim link's live alerts this
	// round; FleetAlerts counts alerts on all other links.
	AuthAlerts   int `json:"auth_alerts"`
	TamperAlerts int `json:"tamper_alerts"`
	FleetAlerts  int `json:"fleet_alerts"`

	// Suspect marks rounds the confirmation protocol absorbed as transient
	// on the victim link.
	Suspect bool `json:"suspect,omitempty"`

	// State and Action are the victim reactor's post-round escalation state
	// and the action it returned.
	State  string `json:"state"`
	Action string `json:"action,omitempty"`
}

// TrialResult is one trial's complete outcome.
type TrialResult struct {
	Cell  Cell   `json:"cell"`
	Class string `json:"class"`
	// Index is the trial's seed index within its cell and class.
	Index int `json:"index"`

	// DetectedRound is the first round at or after the attack mount with a
	// live victim alert (0 = the attack was never detected). Clean trials
	// leave it 0.
	DetectedRound int `json:"detected_round,omitempty"`
	// PostReenrollments counts victim fingerprint refreshes granted at or
	// after the mount round — the quantity the adaptive-tap attacker tries
	// to maximize and the refresh guards try to hold at zero.
	PostReenrollments int `json:"post_reenrollments,omitempty"`
	// Halts and Wipes count the victim reactor's escalations; FinalState is
	// its state after the last round.
	Halts      int    `json:"halts,omitempty"`
	Wipes      int    `json:"wipes,omitempty"`
	FinalState string `json:"final_state"`

	Rounds []RoundRecord `json:"rounds,omitempty"`
}

// mountRound returns the 1-based round the attack mounts at.
func (c Config) mountRound() int { return c.PreRounds + 1 }

// totalRounds returns how many monitoring rounds every trial runs.
func (c Config) totalRounds() int { return c.PreRounds + c.PostRounds }

// engineConfig derives the per-trial engine configuration from the cell's
// environmental axes and the grid's detector overrides. Parallelism is pinned
// to 1: the runner parallelizes across trials, and a trial's rounds must stay
// sequential anyway.
func (c Config) engineConfig(cell Cell) core.Config {
	ecfg := core.DefaultConfig()
	ecfg.Parallelism = 1
	ecfg.ITDR.ComparatorNoise *= cell.NoiseScale
	if c.Detector.AuthThreshold > 0 {
		ecfg.AuthThreshold = c.Detector.AuthThreshold
	}
	ecfg.TamperThresholdScale = c.Detector.TamperThresholdScale
	if c.Detector.DisableReenroll {
		ecfg.Robust.Reenroll.Enabled = false
	}
	return ecfg
}

// buildAttack constructs the cell's attack against the victim line, scaled by
// the cell's contrast. The interposer is a topological cut with no magnitude
// to scale; contrast is ignored there. The module-swap impostor's impedance is
// interpolated between the genuine termination (contrast 0) and a fresh
// same-model draw (contrast 1).
func buildAttack(cell Cell, position float64, victim *txline.Line, stream *rng.Stream) attack.Attack {
	c := cell.Contrast
	switch cell.Attack {
	case "interposer":
		return attack.DefaultInterposer(position)
	case "wiretap":
		base := attack.DefaultWireTap(position)
		base.TapDeltaZ *= c
		base.ScarDeltaZ *= c
		return base
	case "probe":
		base := attack.DefaultMagneticProbe(position)
		base.DeltaZ *= c
		return base
	case "module-swap":
		orig := victim.Termination()
		drawn := txline.DrawTermination(victim.Config(), stream.Child("impostor"))
		return &attack.LoadModification{NewTermination: orig + c*(drawn-orig)}
	case "adaptive-tap":
		base := attack.DefaultAdaptiveTap(position)
		base.RatePerRound *= c
		base.FinalDeltaZ *= c
		return base
	default:
		panic(fmt.Sprintf("experiment: unvalidated attack kind %q", cell.Attack))
	}
}

// trialLabel is the trial's rng namespace. It derives only from the cell
// identity, class, and seed index — never from grid position — so a trial's
// results are independent of which other cells share the grid and of the
// worker that runs it.
func trialLabel(cell Cell, class string, idx int) string {
	return fmt.Sprintf("%s/%s-%d", cell.Label(), class, idx)
}

// runTrial executes one trial: build and calibrate the fleet, run PreRounds
// clean rounds, mount the attack (attacked class only), run PostRounds more,
// recording every round's detection statistics and the victim reactor's
// escalation.
func runTrial(cfg Config, cell Cell, class string, idx int) (TrialResult, error) {
	res := TrialResult{Cell: cell, Class: class, Index: idx}
	st := rng.New(cfg.Seed).Child(trialLabel(cell, class, idx))
	ecfg := cfg.engineConfig(cell)
	env := txline.RoomTemperature()
	env.TempC = cell.TempC

	// The dead-bin field lands on every CPU endpoint from the first
	// monitoring measurement, like an aging fleet rather than one bad unit.
	onset := uint64(ecfg.CalibrationMeasurements() + 1)

	links := make([]*core.Link, cell.FleetSize)
	for j := range links {
		sub := st.Child(fmt.Sprintf("link-%d", j))
		l, err := core.NewLink(fmt.Sprintf("%s/link-%d", trialLabel(cell, class, idx), j),
			ecfg, txline.DefaultConfig(), sub.Child("link"))
		if err != nil {
			return res, fmt.Errorf("experiment: building link %d: %w", j, err)
		}
		l.Env = env
		if cell.DeadBinFrac > 0 {
			l.CPU.Instrument().SetInjector(fault.NewPlane(sub.Child("fault-cpu"),
				fault.DeadBinField(cell.DeadBinFrac, fault.From(onset))))
		}
		if err := l.Calibrate(); err != nil {
			return res, fmt.Errorf("experiment: calibrating link %d: %w", j, err)
		}
		links[j] = l
	}
	victim := links[0]

	var atk attack.Attack
	if class == classAttacked {
		atk = buildAttack(cell, cfg.Position, victim.Line, st.Child("attack"))
	}

	reactor, err := react.NewReactor(react.DefaultPolicy())
	if err != nil {
		return res, err
	}

	mount := cfg.mountRound()
	reenrollsAtMount := 0
	for r := 1; r <= cfg.totalRounds(); r++ {
		if atk != nil {
			switch {
			case r == mount:
				h := victim.Health()
				reenrollsAtMount = h.CPU.Reenrollments + h.Module.Reenrollments
				atk.Apply(victim.Line)
			case r > mount:
				if s, ok := atk.(attack.Stepper); ok {
					s.Advance(victim.Line)
				}
			}
		}

		rec := RoundRecord{Round: r, VictimScore: 1, MinScore: 1}
		for j, l := range links {
			alerts, err := l.MonitorOnce()
			if err != nil {
				return res, fmt.Errorf("experiment: round %d link %d: %w", r, j, err)
			}
			for _, e := range []*core.Endpoint{l.CPU, l.Module} {
				obs := e.LastObservation()
				ratio := 0.0
				if obs.TamperThreshold > 0 {
					ratio = obs.PeakError / obs.TamperThreshold
				}
				if obs.Score < rec.MinScore {
					rec.MinScore = obs.Score
				}
				if ratio > rec.MaxRatio {
					rec.MaxRatio = ratio
				}
				if j == 0 {
					if obs.Score < rec.VictimScore {
						rec.VictimScore = obs.Score
					}
					if ratio > rec.VictimRatio {
						rec.VictimRatio = ratio
					}
				}
			}
			if j == 0 {
				h := victim.Health()
				rec.Suspect = h.SuspectRound()
				for _, a := range alerts {
					switch a.Kind {
					case core.AlertAuthFailure:
						rec.AuthAlerts++
					case core.AlertTamper:
						rec.TamperAlerts++
					}
				}
				action := reactor.ObserveHealth(alerts, h)
				rec.State = reactor.State().String()
				if action != react.ActionNone {
					rec.Action = action.String()
				}
				switch action {
				case react.ActionHalt:
					res.Halts++
				case react.ActionWipe:
					res.Wipes++
				}
				if atk != nil && r >= mount && res.DetectedRound == 0 && len(alerts) > 0 {
					res.DetectedRound = r
				}
			} else {
				rec.FleetAlerts += len(alerts)
			}
		}
		res.Rounds = append(res.Rounds, rec)
	}

	if atk != nil {
		h := victim.Health()
		res.PostReenrollments = h.CPU.Reenrollments + h.Module.Reenrollments - reenrollsAtMount
	}
	res.FinalState = reactor.State().String()
	return res, nil
}
