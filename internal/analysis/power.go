package analysis

import (
	"fmt"
	"math"

	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/spectral"
)

// PowerSpectrum is a binned estimate of P(k): k in h/Mpc, P in (Mpc/h)³.
type PowerSpectrum struct {
	K, P      []float64
	NModes    []int64
	ShotNoise float64 // the subtracted 1/n̄ term, for reference
}

// Power is the persistent distributed P(k) estimator. It bins the
// spectrum of the rank's one spectral plan, the Poisson solver's: a
// measurement deposits the particles, hands the density to
// spectral.Poisson.Spectrum (the solver's own block→x-pencil redistribution
// and r2c forward transform) and bins the half spectrum it returns, so P(k)
// costs no second pencil FFT, redistributor or transform buffers. Built once
// per (solver, box, bin count), Power owns only its per-mode binning tables
// (bin index, CIC deconvolution, Hermitian pair weight) over this rank's
// share of the half spectrum, the binning stripes, and a 1-cell-ghost
// deposit field with its exchanger; a warm Measure allocates nothing on one
// rank.
//
// The deposit field is deliberately not the solver's PM density field: the
// PM field carries Overload+2 ghost layers, and filling and accumulating
// that wide halo makes a P(k) pass about 10 % slower than the 1-cell
// field CIC needs, for bitwise the same spectrum.
//
// The DC mode is excluded from every bin, which makes depositing ρ
// equivalent to depositing δ = ρ−1: no mean subtraction pass is needed.
// The half spectrum (kx ∈ [0, n/2]) covers the full-spectrum sum exactly:
// interior kx planes carry Hermitian weight 2, the self-conjugate kx = 0
// (and kx = n/2 for even n) planes weight 1.
type Power struct {
	ps     *spectral.Poisson
	pool   *par.Pool
	boxMpc float64
	nbins  int

	rho *grid.Field
	ex  *grid.Exchanger

	binOf []int32   // per local half-spectrum mode: bin index, -1 outside
	pfac  []float64 // per mode: weight · norm / W_CIC²
	kfac  []float64 // per mode: weight · |k| (h/Mpc)
	wgt   []uint8   // per mode: Hermitian pair weight (1 or 2)

	// Partial histograms for the pooled binning sweep, one per fixed mode
	// stripe (not per worker): workers claim stripes round-robin and the
	// merge runs in stripe order, so the float64 summation order — and
	// hence the result, bitwise — is independent of the pool size.
	pkS, kwS []float64 // binStripes × nbins
	nmS      []int64
	pk, kw   []float64
	nm       []int64
	workers  int

	// Persistent pool-dispatch body; the per-call spectrum lives in spec.
	binBody func(w int)
	spec    []complex128

	// nGlobal is the (conserved) global particle count, cached at the first
	// collective Measure; mass is the per-particle deposit weight that makes
	// the mean density 1.
	nGlobal int64
	mass    float64

	out PowerSpectrum // plan-owned output storage
}

// NewPower builds the estimator plan on the rank's Poisson solver, whose
// communicator, decomposition and transform it shares. Collective over the
// solver's communicator (the deposit exchanger plan). pool may be nil for a
// serial binning sweep; nbins and boxMpc must be positive.
func NewPower(ps *spectral.Poisson, pool *par.Pool, boxMpc float64, nbins int) *Power {
	if nbins < 1 {
		panic(fmt.Sprintf("analysis: power spectrum needs ≥1 bins, got %d", nbins))
	}
	if boxMpc <= 0 {
		panic(fmt.Sprintf("analysis: box size must be positive, got %g", boxMpc))
	}
	c, dec, pen := ps.Comm(), ps.Decomp(), ps.Pencil()
	ng := dec.N[0]
	pw := &Power{ps: ps, pool: pool, boxMpc: boxMpc, nbins: nbins}
	pw.rho = grid.NewField(dec.N, dec.Box(c.Rank()), 1)
	pw.ex = grid.NewExchanger(c, dec, pw.rho)

	// Per-mode tables over this rank's half-spectrum z-pencil share.
	nk := pen.LocalZR().Count()
	pw.binOf = make([]int32, nk)
	pw.pfac = make([]float64, nk)
	pw.kfac = make([]float64, nk)
	pw.wgt = make([]uint8, nk)
	vol := boxMpc * boxMpc * boxMpc
	nc3 := float64(ng) * float64(ng) * float64(ng)
	norm := vol / (nc3 * nc3)
	kNyq := math.Pi * float64(ng) / boxMpc
	dk := kNyq / float64(nbins)
	half := ng/2 + 1
	pen.ForEachKR(func(mx, my, mz, idx int) {
		pw.binOf[idx] = -1
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
		w := 2.0
		if mx == 0 || (ng%2 == 0 && mx == half-1) {
			w = 1 // self-conjugate plane: the partner mode is also stored
		}
		cw := cicWindow(kx) * cicWindow(ky) * cicWindow(kz)
		pw.binOf[idx] = int32(bin)
		pw.pfac[idx] = w * norm / (cw * cw)
		pw.kfac[idx] = w * kPhys
		pw.wgt[idx] = uint8(w)
	})

	pw.workers = 1
	if pool != nil {
		pw.workers = pool.Workers()
	}
	pw.pkS = make([]float64, binStripes*nbins)
	pw.kwS = make([]float64, binStripes*nbins)
	pw.nmS = make([]int64, binStripes*nbins)
	pw.pk = make([]float64, nbins)
	pw.kw = make([]float64, nbins)
	pw.nm = make([]int64, nbins)
	pw.binBody = func(w int) {
		spec := pw.spec
		for s := w; s < binStripes; s += pw.workers {
			lo, hi := nk*s/binStripes, nk*(s+1)/binStripes
			pk := pw.pkS[s*pw.nbins : (s+1)*pw.nbins]
			kw := pw.kwS[s*pw.nbins : (s+1)*pw.nbins]
			nm := pw.nmS[s*pw.nbins : (s+1)*pw.nbins]
			for i := lo; i < hi; i++ {
				b := pw.binOf[i]
				if b < 0 {
					continue
				}
				v := spec[i]
				pk[b] += (real(v)*real(v) + imag(v)*imag(v)) * pw.pfac[i]
				kw[b] += pw.kfac[i]
				nm[b] += int64(pw.wgt[i])
			}
		}
	}
	return pw
}

// binStripes is the fixed stripe count of the pooled binning sweep; it
// bounds the useful pool parallelism of the sweep but keeps its result
// bitwise independent of the worker count.
const binStripes = 16

// Bins returns the configured bin count.
func (pw *Power) Bins() int { return pw.nbins }

// Measure estimates the matter power spectrum of the domain's active
// particles: CIC deposit onto the plan's field, ghost accumulate, the
// solver's Spectrum (planned block→pencil redistribution and one r2c
// forward transform), and a pooled binning sweep over the half spectrum,
// reduced across ranks.
// subtractShot removes the Poisson discreteness term 1/n̄ (appropriate for
// evolved fields, not lattice ICs). Collective; actives must be canonical
// (post-Migrate). The returned spectrum and its slices are plan-owned,
// valid until the next Measure call.
func (pw *Power) Measure(dom *domain.Domain, subtractShot bool) *PowerSpectrum {
	ng := pw.ps.Decomp().N[0]
	if pw.nGlobal == 0 {
		pw.nGlobal = dom.NGlobal()
		if pw.nGlobal == 0 {
			panic("analysis: power spectrum of an empty particle set")
		}
		pw.mass = float64(ng) * float64(ng) * float64(ng) / float64(pw.nGlobal)
	}
	pw.rho.Fill(0)
	grid.DepositCIC(pw.rho, dom.Active.X, dom.Active.Y, dom.Active.Z, pw.mass)
	pw.ex.Accumulate(pw.rho)
	pw.spec = pw.ps.Spectrum(pw.rho)

	for i := range pw.pkS {
		pw.pkS[i] = 0
		pw.kwS[i] = 0
		pw.nmS[i] = 0
	}
	if pw.pool != nil && pw.workers > 1 {
		pw.pool.Run(pw.workers, pw.binBody)
	} else {
		pw.binBody(0)
	}
	pw.spec = nil
	for b := 0; b < pw.nbins; b++ {
		pw.pk[b] = 0
		pw.kw[b] = 0
		pw.nm[b] = 0
	}
	for s := 0; s < binStripes; s++ {
		for b := 0; b < pw.nbins; b++ {
			pw.pk[b] += pw.pkS[s*pw.nbins+b]
			pw.kw[b] += pw.kwS[s*pw.nbins+b]
			pw.nm[b] += pw.nmS[s*pw.nbins+b]
		}
	}
	if c := pw.ps.Comm(); c.Size() > 1 {
		copy(pw.pk, mpi.AllReduce(c, pw.pk, mpi.SumF64))
		copy(pw.kw, mpi.AllReduce(c, pw.kw, mpi.SumF64))
		copy(pw.nm, mpi.AllReduce(c, pw.nm, mpi.SumI64))
	}

	vol := pw.boxMpc * pw.boxMpc * pw.boxMpc
	shot := vol / float64(pw.nGlobal)
	sub := 0.0
	if subtractShot {
		sub = shot
	}
	pw.out.ShotNoise = shot
	pw.out.K = pw.out.K[:0]
	pw.out.P = pw.out.P[:0]
	pw.out.NModes = pw.out.NModes[:0]
	for b := 0; b < pw.nbins; b++ {
		if pw.nm[b] == 0 {
			continue
		}
		pw.out.K = append(pw.out.K, pw.kw[b]/float64(pw.nm[b]))
		pw.out.P = append(pw.out.P, pw.pk[b]/float64(pw.nm[b])-sub)
		pw.out.NModes = append(pw.out.NModes, pw.nm[b])
	}
	return &pw.out
}

// cicWindow is the CIC assignment window sinc²(k/2) along one axis.
func cicWindow(k float64) float64 {
	if math.Abs(k) < 1e-12 {
		return 1
	}
	s := math.Sin(k/2) / (k / 2)
	return s * s
}
