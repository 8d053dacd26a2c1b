package fingerprint

import "fmt"

// Matcher makes authentication decisions from similarity scores (§IV-C:
// "if the newly measured IIP is equal to the IIP value stored in the ROM
// within a threshold, then it is authenticated").
type Matcher struct {
	// Threshold is the minimum similarity accepted as genuine.
	Threshold float64
}

// AuthResult is the outcome of one authentication attempt.
type AuthResult struct {
	Score     float64
	Threshold float64
	Accepted  bool
}

// String renders the result for logs.
func (r AuthResult) String() string {
	verdict := "REJECT"
	if r.Accepted {
		verdict = "ACCEPT"
	}
	return fmt.Sprintf("%s (S=%.6f, threshold %.6f)", verdict, r.Score, r.Threshold)
}

// Authenticate scores the measured fingerprint against the enrolled one.
func (m Matcher) Authenticate(measured, enrolled IIP) AuthResult {
	s := Similarity(measured, enrolled)
	return AuthResult{Score: s, Threshold: m.Threshold, Accepted: s >= m.Threshold}
}

// TamperDetector flags localized IIP changes using the error function.
type TamperDetector struct {
	// PeakThreshold is the error-function value (volts²) above which a bin
	// indicates tampering — the paper sets it just above the magnetic-probe
	// floor so the weakest attack is still caught.
	PeakThreshold float64
	// Velocity is the propagation velocity used to localize the peak.
	Velocity float64
}

// TamperVerdict describes a tamper check.
type TamperVerdict struct {
	Tampered bool
	// PeakError is the largest E_xy value observed.
	PeakError float64
	// Position is the estimated distance of the disturbance from the
	// source in meters (meaningful only when Tampered).
	Position float64
	// At is the round-trip time of the peak.
	At float64
	// Contrast is the peak-to-mean ratio of the error function — large for
	// localized change, near the χ² field's ratio for global noise or
	// drift. The re-enrollment guard uses it to tell drift from attack.
	Contrast float64
}

// String renders the verdict for logs.
func (v TamperVerdict) String() string {
	if !v.Tampered {
		return fmt.Sprintf("clean (peak E=%.3g)", v.PeakError)
	}
	return fmt.Sprintf("TAMPER at %.1f mm (E=%.3g, t=%.2f ns)",
		v.Position*1e3, v.PeakError, v.At*1e9)
}

// Check compares a fresh measurement against the reference fingerprint.
func (d TamperDetector) Check(measured, reference IIP) TamperVerdict {
	return d.CheckMaskedWith(nil, measured, reference, nil)
}
