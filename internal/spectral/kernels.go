package spectral

import (
	"math"

	"hacc/internal/pfft"
)

// Default filter parameters from the paper: σ=0.8 grid cells, ns=3.
const (
	DefaultSigma = 0.8
	DefaultNs    = 3
)

// Filter evaluates the isotropizing spectral filter of eq. (5) at radial
// wavenumber k (grid units, k∈[0, √3·π]).
func Filter(k, sigma float64, ns int) float64 {
	g := math.Exp(-k * k * sigma * sigma / 4)
	if k < 1e-12 {
		return g
	}
	s := math.Sin(k/2) / (k / 2)
	return g * math.Pow(s, float64(ns))
}

// Influence6 returns the eigenvalue λ(k) of the sixth-order periodic
// discrete Laplacian for the mode with components (kx,ky,kz); the influence
// function (spectral inverse Laplacian) is 1/λ. λ → −k² as k → 0 and λ < 0
// for every non-zero mode.
func Influence6(kx, ky, kz float64) float64 {
	return Lap6(kx) + Lap6(ky) + Lap6(kz)
}

// Lap6 is the 1-D sixth-order second-derivative eigenvalue
// (stencil 1/90·[2, −27, 270, −490, 270, −27, 2]). Influence6 sums it over
// the three axes, so per-axis Lap6 tables summed in x, y, z order give
// Influence6's bits.
func Lap6(k float64) float64 {
	return -49.0/18 + 3*math.Cos(k) - 0.3*math.Cos(2*k) + math.Cos(3*k)/45
}

// GradSL4 returns the fourth-order Super-Lanczos spectral differencing
// multiplier D(k) (Hamming 1998), so that ∂/∂x ↔ i·D(k). D(k) → k as k → 0.
func GradSL4(k float64) float64 {
	return (8*math.Sin(k) - math.Sin(2*k)) / 6
}

// KMode converts a mode index m on an n-point periodic grid to the signed
// wavenumber k = 2π·m̃/n with m̃ ∈ [−n/2, n/2).
func KMode(m, n int) float64 {
	if m > n/2 {
		m -= n
	}
	return 2 * math.Pi * float64(m) / float64(n)
}

// RadialTable memoizes a function of a mode's squared wavenumber
// k² = kx²+ky²+kz² over sign-folded mode indices. KMode(n−m, n) is exactly
// −KMode(m, n), so modes that differ only in the signs of their components
// have bitwise the same k², and one entry per (|m̃x|, |m̃y|, |m̃z|) serves up
// to eight modes. The table spans the folded indices of one box of modes
// and fills an entry on its first lookup, so a rank evaluates f only on the
// k² its own modes have. Not safe for concurrent use.
type RadialTable struct {
	f    func(k2 float64) float64
	n    [3]int
	lo   [3]int       // smallest folded index per axis
	size [3]int       // folded index span per axis
	k    [3][]float64 // KMode per folded index, from lo
	val  []float64
	done []bool
}

// NewRadialTable builds an empty table of f for the modes in box (global
// mode indices) of an n grid.
func NewRadialTable(n [3]int, box pfft.Box, f func(k2 float64) float64) *RadialTable {
	t := &RadialTable{f: f, n: n}
	count := 1
	for a := 0; a < 3; a++ {
		lo, hi := n[a], -1
		for m := box.Lo[a]; m < box.Hi[a]; m++ {
			fm := fold(m, n[a])
			lo, hi = min(lo, fm), max(hi, fm)
		}
		if hi < lo {
			return t // empty box: At is never called
		}
		t.lo[a], t.size[a] = lo, hi-lo+1
		t.k[a] = make([]float64, t.size[a])
		for i := range t.k[a] {
			t.k[a][i] = KMode(lo+i, n[a])
		}
		count *= t.size[a]
	}
	t.val = make([]float64, count)
	t.done = make([]bool, count)
	return t
}

// At returns f(k²) for the global mode (mx, my, mz), which must lie in the
// table's box.
func (t *RadialTable) At(mx, my, mz int) float64 {
	x := fold(mx, t.n[0]) - t.lo[0]
	y := fold(my, t.n[1]) - t.lo[1]
	z := fold(mz, t.n[2]) - t.lo[2]
	i := (x*t.size[1]+y)*t.size[2] + z
	if !t.done[i] {
		kx, ky, kz := t.k[0][x], t.k[1][y], t.k[2][z]
		t.val[i] = t.f(kx*kx + ky*ky + kz*kz)
		t.done[i] = true
	}
	return t.val[i]
}

// fold maps a mode index to |m̃|, the index of the non-negative wavenumber
// of the same magnitude.
func fold(m, n int) int {
	if m > n/2 {
		return n - m
	}
	return m
}
