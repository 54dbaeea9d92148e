package analysis

import (
	"math"

	"hacc/internal/domain"
	"hacc/internal/fft"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/spectral"
)

// powerSerial is the pre-plan estimator — full complex-spectrum FFT —
// retained as the equivalence oracle for Power.Measure. Every rank gathers
// the whole density grid, transforms it with a serial fft.Plan3 and bins
// every mode. Collective over comm.
func powerSerial(c *mpi.Comm, dec *grid.Decomp, dom *domain.Domain, boxMpc float64, nbins int, subtractShot bool) *PowerSpectrum {
	n := dec.N
	ng := n[0]
	rho := grid.NewField(n, dec.Box(c.Rank()), 1)
	ex := grid.NewExchanger(c, dec, rho)
	nGlobal := dom.NGlobal()
	// Unit mean density: each particle carries Nc³/Np.
	mass := float64(ng) * float64(ng) * float64(ng) / float64(nGlobal)
	grid.DepositCIC(rho, dom.Active.X, dom.Active.Y, dom.Active.Z, mass)
	ex.Accumulate(rho)

	full := make([]float64, ng*ng*ng)
	box := dec.Box(c.Rank())
	for x := box.Lo[0]; x < box.Hi[0]; x++ {
		for y := box.Lo[1]; y < box.Hi[1]; y++ {
			for z := box.Lo[2]; z < box.Hi[2]; z++ {
				full[(x*ng+y)*ng+z] = rho.At(x, y, z)
			}
		}
	}
	full = mpi.AllReduce(c, full, mpi.SumF64)
	spec := make([]complex128, len(full))
	for i, v := range full {
		spec[i] = complex(v-1, 0) // δ = ρ−1 (ρ̄ = 1 by mass choice)
	}
	fft.NewPlan3(ng, ng, ng).Forward(spec)

	vol := boxMpc * boxMpc * boxMpc
	nc3 := float64(ng) * float64(ng) * float64(ng)
	norm := vol / (nc3 * nc3)
	kNyq := math.Pi * float64(ng) / boxMpc
	dk := kNyq / float64(nbins)

	pk := make([]float64, nbins)
	kw := make([]float64, nbins)
	nm := make([]int64, nbins)
	for idx := range spec {
		mx, my, mz := idx/(ng*ng), idx/ng%ng, idx%ng
		if mx == 0 && my == 0 && mz == 0 {
			continue
		}
		kx := spectral.KMode(mx, ng)
		ky := spectral.KMode(my, ng)
		kz := spectral.KMode(mz, ng)
		kPhys := math.Sqrt(kx*kx+ky*ky+kz*kz) * float64(ng) / boxMpc
		bin := int(kPhys / dk)
		if bin >= nbins {
			continue
		}
		// Deconvolve the CIC assignment window (one deposit → sinc² per
		// axis).
		w := cicWindow(kx) * cicWindow(ky) * cicWindow(kz)
		v := spec[idx]
		p := (real(v)*real(v) + imag(v)*imag(v)) * norm / (w * w)
		pk[bin] += p
		kw[bin] += kPhys
		nm[bin]++
	}

	shot := vol / float64(nGlobal)
	out := &PowerSpectrum{ShotNoise: shot}
	sub := 0.0
	if subtractShot {
		sub = shot
	}
	for b := 0; b < nbins; b++ {
		if nm[b] == 0 {
			continue
		}
		out.K = append(out.K, kw[b]/float64(nm[b]))
		out.P = append(out.P, pk[b]/float64(nm[b])-sub)
		out.NModes = append(out.NModes, nm[b])
	}
	return out
}
