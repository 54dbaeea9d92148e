package analysis

import "math"

// CorrelationFromPower converts a binned power spectrum into the two-point
// correlation function ξ(r) via the spherical Hankel transform
//
//	ξ(r) = 1/(2π²) ∫ P(k)·k²·j₀(kr) dk,
//
// integrating over the measured bins (trapezoid in k). The paper's survey
// science (§V) uses galaxy correlation functions as a primary statistic;
// this is the measurement-side counterpart.
func CorrelationFromPower(ps *PowerSpectrum, radii []float64) []float64 {
	out := make([]float64, len(radii))
	n := len(ps.K)
	if n < 2 {
		return out
	}
	for ri, r := range radii {
		var sum float64
		for i := 0; i < n-1; i++ {
			k0, k1 := ps.K[i], ps.K[i+1]
			f0 := ps.P[i] * k0 * k0 * j0(k0*r)
			f1 := ps.P[i+1] * k1 * k1 * j0(k1*r)
			sum += 0.5 * (f0 + f1) * (k1 - k0)
		}
		out[ri] = sum / (2 * math.Pi * math.Pi)
	}
	return out
}

// j0 is the spherical Bessel function sin(x)/x.
func j0(x float64) float64 {
	if math.Abs(x) < 1e-8 {
		return 1 - x*x/6
	}
	return math.Sin(x) / x
}
