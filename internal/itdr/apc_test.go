package itdr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAPCProbabilityIsGaussianCDFForSingleRef(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{0}
	if got := a.Probability(0, refs); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P at ref = %v, want 0.5", got)
	}
	if got := a.Probability(1e-3, refs); math.Abs(got-0.8413447460685429) > 1e-9 {
		t.Errorf("P at +1σ = %v", got)
	}
}

func TestAPCProbabilityMonotone(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{-2e-3, 0, 2e-3}
	f := func(v1, v2 float64) bool {
		if math.IsNaN(v1) || math.IsNaN(v2) || math.IsInf(v1, 0) || math.IsInf(v2, 0) {
			return true
		}
		// Scale raw quick values into a meaningful voltage range.
		v1 = math.Mod(v1, 1) * 10e-3
		v2 = math.Mod(v2, 1) * 10e-3
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return a.Probability(v1, refs) <= a.Probability(v2, refs)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAPCProbabilityLimits(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{-1e-3, 1e-3}
	if got := a.Probability(-1, refs); got > 1e-9 {
		t.Errorf("P far below refs = %v, want ~0", got)
	}
	if got := a.Probability(1, refs); got < 1-1e-9 {
		t.Errorf("P far above refs = %v, want ~1", got)
	}
}

func TestEstimateVoltageInvertsProbability(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{-3e-3, -1e-3, 1e-3, 3e-3}
	for _, v := range []float64{-2.5e-3, -1e-3, 0, 0.7e-3, 2.9e-3} {
		p := a.Probability(v, refs)
		got := a.EstimateVoltage(p, 1<<20, refs)
		if math.Abs(got-v) > 1e-6 {
			t.Errorf("EstimateVoltage(P(%v)) = %v", v, got)
		}
	}
}

func TestEstimateVoltageWithOffset(t *testing.T) {
	a := APC{NoiseSigma: 1e-3, Offset: 0.5e-3}
	refs := []float64{0}
	v := 0.3e-3
	p := a.Probability(v, refs)
	if got := a.EstimateVoltage(p, 1<<20, refs); math.Abs(got-v) > 1e-6 {
		t.Errorf("offset-aware inversion = %v, want %v", got, v)
	}
}

func TestEstimateVoltageClampsExtremes(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{0}
	vLo := a.EstimateVoltage(0, 100, refs)
	vHi := a.EstimateVoltage(1, 100, refs)
	if !(vLo < 0 && vHi > 0) {
		t.Errorf("extreme estimates %v, %v should straddle the reference", vLo, vHi)
	}
	if math.IsInf(vLo, 0) || math.IsInf(vHi, 0) {
		t.Error("estimates must stay finite at p=0 and p=1")
	}
}

func TestEstimateVoltagePanicsOnBadTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	APC{NoiseSigma: 1}.EstimateVoltage(0.5, 0, []float64{0})
}

func TestPDMWidensLinearRegion(t *testing.T) {
	// The central claim of Fig. 4: multiple reference levels widen the
	// linear region compared with a single reference.
	sigma := 1e-3
	a := APC{NoiseSigma: sigma}
	single := a.LinearRegion([]float64{0}, 0.25, sigma/20)
	multi := a.LinearRegion([]float64{-3e-3, -1.5e-3, 0, 1.5e-3, 3e-3}, 0.25, sigma/20)
	if multi <= single {
		t.Errorf("PDM linear region %v should exceed single-reference %v", multi, single)
	}
	if multi < 3*single {
		t.Errorf("PDM widening only %.1fx; expected a substantial gain", multi/single)
	}
}

func TestSensitivityIsDerivativeOfProbability(t *testing.T) {
	a := APC{NoiseSigma: 1e-3}
	refs := []float64{-1e-3, 1e-3}
	h := 1e-8
	for _, v := range []float64{-1.5e-3, 0, 0.8e-3} {
		numeric := (a.Probability(v+h, refs) - a.Probability(v-h, refs)) / (2 * h)
		analytic := a.Sensitivity(v, refs)
		if math.Abs(numeric-analytic) > 1e-3*math.Abs(analytic)+1e-6 {
			t.Errorf("sensitivity at %v: numeric %v vs analytic %v", v, numeric, analytic)
		}
	}
}

func TestProbabilityPanicsWithoutRefs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	APC{NoiseSigma: 1}.Probability(0, nil)
}

func TestInverterMatches(t *testing.T) {
	apc := APC{NoiseSigma: 1e-3}
	refs := []float64{-1e-3, 0, 1e-3}
	iv := apc.NewInverter(refs)
	if !iv.Matches(refs) {
		t.Error("inverter must match the refs it was built for")
	}
	if !iv.Matches([]float64{-1e-3, 0, 1e-3}) {
		t.Error("Matches must compare values, not slice identity")
	}
	if iv.Matches(refs[:2]) {
		t.Error("matched a shorter reference set")
	}
	if iv.Matches([]float64{-1e-3, 0, 2e-3}) {
		t.Error("matched a different reference set")
	}

	// resetInverter copies the refs out of the caller's scratch, so a
	// rebuilt inverter keeps matching after the scratch is overwritten.
	scratch := []float64{-1e-3, 0, 1e-3}
	var reset Inverter
	apc.resetInverter(&reset, scratch)
	scratch[1] = 5e-3
	if !reset.Matches(refs) || reset.Matches(scratch) {
		t.Error("reset inverter aliased the caller's scratch")
	}
}

func TestInverterPromoteKeepsEstimates(t *testing.T) {
	// Promotion swaps bisection for table interpolation; over the clamped
	// input range the two must agree to well under the counting noise a
	// 25-trial bin carries (~2% of a sigma), or the per-bin cache would
	// change measurements when it kicks in.
	apc := APC{NoiseSigma: 1e-3}
	refs := []float64{-2e-3, -1e-3, 0, 1e-3, 2e-3}
	exact := apc.NewInverter(refs)
	tabled := apc.NewInverter(refs)
	tabled.Promote()
	if tabled.table == nil || exact.table != nil {
		t.Fatal("Promoted flags wrong")
	}
	tabled.Promote() // idempotent
	const trials = 25
	for k := 0; k <= trials; k++ {
		p := float64(k) / trials
		a, b := exact.Estimate(p, trials), tabled.Estimate(p, trials)
		if math.Abs(a-b) > 2e-5 {
			t.Errorf("p=%v: bisection %v vs table %v", p, a, b)
		}
	}
}

func TestEstimateVoltageMatchesInverter(t *testing.T) {
	apc := APC{NoiseSigma: 0.4e-3}
	refs := []float64{-1e-3, 0.5e-3, 1.5e-3}
	iv := apc.NewInverter(refs)
	for _, p := range []float64{0, 0.1, 0.48, 0.9, 1} {
		if got, want := apc.EstimateVoltage(p, 25, refs), iv.Estimate(p, 25); got != want {
			t.Errorf("p=%v: EstimateVoltage %v, Inverter.Estimate %v", p, got, want)
		}
	}
}

func TestNewAPCMatchesLiteral(t *testing.T) {
	// NewAPC hoists the Gaussian; a literal APC builds it per call. Both
	// forms must price probabilities identically.
	hoisted := NewAPC(0.4e-3, 0.1e-3)
	literal := APC{NoiseSigma: 0.4e-3, Offset: 0.1e-3}
	refs := []float64{-0.5e-3, 0, 0.5e-3}
	for _, d := range []float64{-2e-3, -1e-4, 0, 3e-4, 2e-3} {
		if got, want := hoisted.Probability(d, refs), literal.Probability(d, refs); got != want {
			t.Errorf("delta %v: hoisted %v, literal %v", d, got, want)
		}
		if got, want := hoisted.Sensitivity(d, refs), literal.Sensitivity(d, refs); got != want {
			t.Errorf("sensitivity at %v: hoisted %v, literal %v", d, got, want)
		}
	}
}
