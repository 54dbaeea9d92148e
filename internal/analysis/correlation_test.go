package analysis

import (
	"math"
	"testing"

	"hacc/internal/cosmology"
)

// CorrelationFromSpectrum evaluates CorrelationFromPower's transform for an
// analytic spectrum over [kMin, kMax] with n log-spaced intervals, e.g. to
// get the linear-theory ξ(r) with its BAO peak at ~105 Mpc/h. It is the
// tests' analytic reference.
func CorrelationFromSpectrum(p func(float64) float64, kMin, kMax float64, n int, radii []float64) []float64 {
	out := make([]float64, len(radii))
	lk0, lk1 := math.Log(kMin), math.Log(kMax)
	h := (lk1 - lk0) / float64(n)
	for ri, r := range radii {
		var sum float64
		for i := 0; i <= n; i++ {
			k := math.Exp(lk0 + float64(i)*h)
			w := 1.0
			if i == 0 || i == n {
				w = 0.5
			}
			// dk = k·dlnk for the log grid.
			sum += w * p(k) * k * k * k * j0(k*r) * h
		}
		out[ri] = sum / (2 * math.Pi * math.Pi)
	}
	return out
}

func TestCorrelationGaussianAnalytic(t *testing.T) {
	// P(k) = A·exp(−k²σ²) has the closed form
	// ξ(r) = A/(8·π^{3/2}·σ³)·exp(−r²/(4σ²)).
	const (
		amp   = 100.0
		sigma = 5.0
	)
	p := func(k float64) float64 { return amp * math.Exp(-k*k*sigma*sigma) }
	radii := []float64{0, 2, 5, 10, 20}
	xi := CorrelationFromSpectrum(p, 1e-4, 10, 20000, radii)
	for i, r := range radii {
		want := amp / (8 * math.Pow(math.Pi, 1.5) * sigma * sigma * sigma) *
			math.Exp(-r*r/(4*sigma*sigma))
		if math.Abs(xi[i]-want) > 2e-3*want+1e-10 {
			t.Errorf("r=%g: ξ=%g want %g", r, xi[i], want)
		}
	}
}

func TestCorrelationBAOPeak(t *testing.T) {
	// Linear-theory ξ(r) from the full Eisenstein-Hu spectrum shows the
	// acoustic peak near 105 Mpc/h: ξ must have a local maximum in
	// r ∈ [90, 120] that exceeds its neighborhood.
	params := cosmology.Default()
	lp := cosmology.NewLinearPower(params, cosmology.EisensteinHu(params))
	var radii []float64
	for r := 60.0; r <= 140; r += 2 {
		radii = append(radii, r)
	}
	xi := CorrelationFromSpectrum(lp.P, 1e-4, 10, 40000, radii)
	// Find the max in the BAO window.
	best, bestR := -math.MaxFloat64, 0.0
	for i, r := range radii {
		if r >= 90 && r <= 120 && xi[i] > best {
			best = xi[i]
			bestR = r
		}
	}
	// Reference level away from the peak (r=60 declines monotonically in a
	// no-wiggle model; the peak must rise above the local trend at 130).
	var at130 float64
	for i, r := range radii {
		if r == 130 {
			at130 = xi[i]
		}
	}
	if !(best > at130) {
		t.Errorf("no BAO bump: max %g at r=%g vs ξ(130)=%g", best, bestR, at130)
	}
	t.Logf("BAO peak at r=%g Mpc/h (expected ≈105)", bestR)
	if bestR < 95 || bestR > 115 {
		t.Errorf("BAO peak at %g Mpc/h, expected ≈105", bestR)
	}
	// The no-wiggle spectrum must NOT show the bump.
	smooth := cosmology.NewLinearPower(params, cosmology.EisensteinHuNoWiggle(params))
	xs := CorrelationFromSpectrum(smooth.P, 1e-4, 10, 40000, radii)
	for i := 1; i < len(radii)-1; i++ {
		if radii[i] >= 90 && radii[i] <= 120 {
			if xs[i] > xs[i-1] && xs[i] > xs[i+1] {
				t.Errorf("no-wiggle ξ has a spurious peak at r=%g", radii[i])
			}
		}
	}
}

func TestCorrelationFromMeasuredPower(t *testing.T) {
	// A flat measured spectrum behaves like the analytic transform of the
	// same flat function over the same support.
	ps := &PowerSpectrum{}
	for k := 0.05; k < 1.0; k += 0.01 {
		ps.K = append(ps.K, k)
		ps.P = append(ps.P, 42.0)
	}
	radii := []float64{1, 3, 7}
	got := CorrelationFromPower(ps, radii)
	want := CorrelationFromSpectrum(func(float64) float64 { return 42 },
		ps.K[0], ps.K[len(ps.K)-1], 8000, radii)
	for i := range radii {
		if math.Abs(got[i]-want[i]) > 3e-2*math.Abs(want[i])+1e-6 {
			t.Errorf("r=%g: binned %g analytic %g", radii[i], got[i], want[i])
		}
	}
}
