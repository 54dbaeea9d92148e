package analysis

import (
	"math"

	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
	"hacc/internal/spectral"
)

// powerSerial is the pre-plan estimator — full complex-spectrum FFT through
// the one-shot redistribution — retained as the equivalence oracle for
// Power.Measure. Collective over comm.
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

	pen := pfft.NewAuto(c, n)
	owned := rho.Owned()
	moved := pfft.NewRedistributor[float64](c, dec.Layout(), pen.LayoutX()).Run(owned, nil)
	data := make([]complex128, len(moved))
	for i, v := range moved {
		data[i] = complex(v-1, 0) // δ = ρ−1 (ρ̄ = 1 by mass choice)
	}
	spec := pen.Forward(data)

	vol := boxMpc * boxMpc * boxMpc
	nc3 := float64(ng) * float64(ng) * float64(ng)
	norm := vol / (nc3 * nc3)
	kNyq := math.Pi * float64(ng) / boxMpc
	dk := kNyq / float64(nbins)

	pk := make([]float64, nbins)
	kw := make([]float64, nbins)
	nm := make([]int64, nbins)
	pen.ForEachK(func(mx, my, mz, idx int) {
		if mx == 0 && my == 0 && mz == 0 {
			return
		}
		kx := spectral.KMode(mx, ng)
		ky := spectral.KMode(my, ng)
		kz := spectral.KMode(mz, ng)
		kPhys := math.Sqrt(kx*kx+ky*ky+kz*kz) * float64(ng) / boxMpc
		bin := int(kPhys / dk)
		if bin >= nbins {
			return
		}
		// Deconvolve the CIC assignment window (one deposit → sinc² per
		// axis).
		w := cicWindow(kx) * cicWindow(ky) * cicWindow(kz)
		v := spec[idx]
		p := (real(v)*real(v) + imag(v)*imag(v)) * norm / (w * w)
		pk[bin] += p
		kw[bin] += kPhys
		nm[bin]++
	})
	pk = mpi.AllReduce(c, pk, mpi.SumF64)
	kw = mpi.AllReduce(c, kw, mpi.SumF64)
	nm = mpi.AllReduce(c, nm, mpi.SumI64)

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
