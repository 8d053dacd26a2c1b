package txline

import (
	"fmt"
	"math"

	"divot/internal/rng"
)

// Clone models the strongest physical attacker the PUF claim must survive:
// one who has stolen the enrolled fingerprint (the paper argues EPROM
// secrecy is not critical — §III) and fabricates a replica line, steering
// trace width over distance to approximate the victim's impedance profile.
//
// Fabrication has a spatial control limit: an attacker can hold an average
// impedance over a patterning window of some length, but cannot reproduce
// the sub-window inhomogeneity — that part comes out as fresh manufacturing
// randomness. CloneLine therefore low-passes the victim's profile at the
// attacker's control resolution and adds new intrinsic randomness beneath
// it. As the control window shrinks toward the iTDR's 0.837 mm resolution
// the clone gets better; the clone experiment quantifies how much margin
// remains.

// CloneSpec describes the attacker's fabrication capability.
type CloneSpec struct {
	// ControlResolution is the smallest length over which the attacker can
	// set the average impedance, in meters (e.g. 5 mm for careful manual
	// trace-width control, 1-2 mm for a custom fab run).
	ControlResolution float64
	// ResidualContrastRMS is the RMS of the uncontrollable sub-window
	// randomness the attacker's process adds, as a relative impedance
	// deviation. Physically bounded below by the same manufacturing
	// physics that gave the victim its IIP.
	ResidualContrastRMS float64
	// MatchTermination is whether the attacker also installs a termination
	// trimmed to the victim's measured value.
	MatchTermination bool
}

// CloneLine fabricates the attacker's best replica of the victim.
func CloneLine(victim *Line, spec CloneSpec, stream *rng.Stream) *Line {
	if spec.ControlResolution <= 0 {
		panic(fmt.Sprintf("txline: non-positive clone resolution %v", spec.ControlResolution))
	}
	cfg := victim.cfg
	n := len(victim.baseZ)
	window := int(math.Round(spec.ControlResolution / cfg.SegmentLength))
	if window < 1 {
		window = 1
	}

	// The attacker reproduces the windowed average of the victim's profile.
	target := make([]float64, n)
	for start := 0; start < n; start += window {
		end := start + window
		if end > n {
			end = n
		}
		var avg float64
		for i := start; i < end; i++ {
			avg += victim.baseZ[i]
		}
		avg /= float64(end - start)
		for i := start; i < end; i++ {
			target[i] = avg
		}
	}

	// Fresh sub-window randomness from the attacker's own process, with
	// the same spatial correlation physics as any manufactured line.
	resid := stream.Child("clone-residual")
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = resid.Gaussian(0, 1)
	}
	smooth := smoothProfile(raw, cfg.CorrelationLength/cfg.SegmentLength)
	var ss float64
	for _, v := range smooth {
		ss += v * v
	}
	rms := math.Sqrt(ss / float64(n))
	scale := 0.0
	if rms > 0 {
		scale = spec.ResidualContrastRMS / rms
	}

	baseZ := make([]float64, n)
	for i := range baseZ {
		baseZ[i] = target[i] + cfg.Z0*scale*smooth[i]
	}

	diff := make([]float64, n)
	tcStream := stream.Child("clone-tempdiff")
	for i := range diff {
		diff[i] = tcStream.Gaussian(0, cfg.TempCoeffDiffRMS)
	}
	term := DrawTermination(cfg, stream.Child("clone-term"))
	if spec.MatchTermination {
		term = victim.termZ
	}
	return &Line{
		cfg:     cfg,
		id:      victim.id + "-clone",
		baseZ:   baseZ,
		diffTC:  diff,
		termZ:   term,
		perturb: make(map[string]Perturbation),
	}
}
