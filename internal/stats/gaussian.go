// Package stats provides the statistical substrate used throughout the DIVOT
// simulation: Gaussian distribution math, histograms, descriptive statistics,
// and ROC/EER computation for authentication experiments.
package stats

import (
	"fmt"
	"math"
)

// Gaussian is a normal distribution with the given mean and standard
// deviation. The zero value is not useful; Sigma must be positive.
type Gaussian struct {
	Mean  float64
	Sigma float64
}

// StdNormal is the standard normal distribution N(0, 1).
var StdNormal = Gaussian{Mean: 0, Sigma: 1}

// NewGaussian returns a Gaussian with the given mean and standard deviation.
// It panics if sigma is not positive, since every caller in this codebase
// constructs distributions from static configuration.
func NewGaussian(mean, sigma float64) Gaussian {
	if sigma <= 0 {
		panic(fmt.Sprintf("stats: non-positive sigma %v", sigma))
	}
	return Gaussian{Mean: mean, Sigma: sigma}
}

// PDF returns the probability density at x.
func (g Gaussian) PDF(x float64) float64 {
	z := (x - g.Mean) / g.Sigma
	return math.Exp(-0.5*z*z) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (g Gaussian) CDF(x float64) float64 {
	z := (x - g.Mean) / (g.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Quantile returns the x such that CDF(x) = p. It panics for p outside (0, 1).
func (g Gaussian) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile probability %v out of (0,1)", p))
	}
	return g.Mean + g.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}
