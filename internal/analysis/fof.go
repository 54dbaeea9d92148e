package analysis

import (
	"math"

	"hacc/internal/mpi"
)

// Halo is a friends-of-friends group.
type Halo struct {
	N          int     // particle count
	GID        uint64  // global group ID: minimum member particle ID
	Mass       float64 // N · particle mass (caller's units)
	X, Y, Z    float64 // center of mass (grid units)
	VX, VY, VZ float64 // mean velocity
	RMax       float64 // max particle distance from center (grid units)
	Members    []int32 // indices into the particle arrays passed to the finder
}

// MassFunctionBins histograms halo masses into logarithmic bins, returning
// bin centers (Msun/h) and dn/dlnM in (Mpc/h)⁻³. Collective.
func MassFunctionBins(c *mpi.Comm, halos []Halo, volMpc3 float64, mMin, mMax float64, nbins int) (m []float64, dndlnm []float64) {
	counts := make([]float64, nbins)
	lmin, lmax := math.Log(mMin), math.Log(mMax)
	dln := (lmax - lmin) / float64(nbins)
	for _, h := range halos {
		if h.Mass <= 0 {
			continue
		}
		b := int(math.Floor((math.Log(h.Mass) - lmin) / dln))
		if b >= 0 && b < nbins {
			counts[b]++
		}
	}
	counts = mpi.AllReduce(c, counts, mpi.SumF64)
	m = make([]float64, nbins)
	dndlnm = make([]float64, nbins)
	for b := 0; b < nbins; b++ {
		m[b] = math.Exp(lmin + (float64(b)+0.5)*dln)
		dndlnm[b] = counts[b] / (volMpc3 * dln)
	}
	return
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
