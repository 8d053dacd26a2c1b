package txline

import "math"

// erfTable is a cubic-Hermite fit of erf on [−4, 4] with knots every
// 1/erfTableScale. Knot values come from math.Erf and knot slopes from the
// exact derivative 2/√π·e^(−x²); erf is odd, so only [0, 4) is stored and
// negative arguments reuse it mirrored. Entry k holds the polynomial
// coefficients of the interval [k, k+1]/erfTableScale in the local
// coordinate u ∈ [0, 1). The largest error against math.Erf is ~1.7e-13
// (the h⁴/384·max|erf⁗| Hermite bound at h = 1/512).
var erfTable = buildErfTable()

const (
	erfTableMax   = 4
	erfTableScale = 512
)

func buildErfTable() *[erfTableMax * erfTableScale][4]float64 {
	var tab [erfTableMax * erfTableScale][4]float64
	const h = 1.0 / erfTableScale
	// slope is erf' at x, scaled to the unit local coordinate.
	slope := func(x float64) float64 { return h * 2 / math.SqrtPi * math.Exp(-x*x) }
	for k := range tab {
		x0, x1 := float64(k)*h, float64(k+1)*h
		y0, y1 := math.Erf(x0), math.Erf(x1)
		d0, d1 := slope(x0), slope(x1)
		tab[k] = [4]float64{
			y0,
			d0,
			3*(y1-y0) - 2*d0 - d1,
			2*(y0-y1) + d0 + d1,
		}
	}
	return &tab
}

// erfTab is erf from erfTable inside (−4, 4) and math.Erf elsewhere,
// including ±0, ±Inf and NaN. It is odd, so erfTab(±0) = ±0. It is the
// scalar form of the case split edgeKernel.add makes inline per sample.
func erfTab(x float64) float64 {
	switch {
	case 0 < x && x < erfTableMax:
		return erfPoly(x)
	case -erfTableMax < x && x < 0:
		return -erfPoly(-x)
	}
	return math.Erf(x)
}

// erfPoly evaluates erfTable at 0 < x < erfTableMax; the caller guarantees
// the range.
func erfPoly(x float64) float64 {
	s := x * erfTableScale
	k := int(s)
	u := s - float64(k)
	c := &erfTable[k]
	return c[0] + u*(c[1]+u*(c[2]+u*c[3]))
}
