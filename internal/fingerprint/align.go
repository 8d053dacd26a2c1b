package fingerprint

import (
	"divot/internal/signal"
)

// Stretch alignment: temperature and mechanical strain move every reflection
// arrival time by a common factor (§IV-C / Fig. 8). Because the distortion
// is a one-parameter family, the matcher can search it out: resample the
// measured fingerprint by a trial factor and keep the factor that maximizes
// similarity. This is this reproduction's implementation of the paper's
// "higher threshold values" discussion — instead of loosening the threshold
// under environmental stress, the endpoint estimates the stretch and undoes
// it, recovering room-temperature accuracy. The search is cheap enough for
// firmware (tens of 343-point correlations).

// AlignResult reports a stretch-compensated match.
type AlignResult struct {
	// Aligned is the measured fingerprint resampled by 1/Stretch.
	Aligned IIP
	// Stretch is the estimated time-axis factor (1 = no distortion).
	Stretch float64
	// Score is the similarity of the aligned fingerprint to the reference.
	Score float64
}

// AlignStretch searches stretch factors in [1-maxStrain, 1+maxStrain] for
// the one maximizing Similarity(measured', ref), using a coarse grid
// followed by two refinement passes. The pipeline rebuilds the comparison
// view after each resample (without re-smoothing — the input is already the
// post-pipeline Raw waveform).
func AlignStretch(measured, ref IIP, maxStrain float64, p Pipeline) AlignResult {
	if !measured.Valid() || !ref.Valid() || maxStrain <= 0 {
		return AlignResult{Aligned: measured, Stretch: 1, Score: Similarity(measured, ref)}
	}
	noSmooth := p
	noSmooth.SmoothSigmaBins = 0
	eval := func(s float64) (IIP, float64) {
		w := signal.Stretch(measured.Raw, 1/s)
		f := noSmooth.FromWaveform(w)
		return f, Similarity(f, ref)
	}

	best := AlignResult{Stretch: 1}
	best.Aligned, best.Score = eval(1)
	lo, hi := 1-maxStrain, 1+maxStrain
	const gridPoints = 17
	span := hi - lo
	for pass := 0; pass < 3; pass++ {
		step := span / (gridPoints - 1)
		for i := 0; i < gridPoints; i++ {
			s := lo + float64(i)*step
			if s <= 0 {
				continue
			}
			if f, score := eval(s); score > best.Score {
				best = AlignResult{Aligned: f, Stretch: s, Score: score}
			}
		}
		// Refine around the current best.
		span = 2.5 * step
		lo = best.Stretch - span/2
	}
	return best
}
