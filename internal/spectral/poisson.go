package spectral

import (
	"math"

	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/pfft"
)

// Options configures the Poisson solver.
type Options struct {
	OmegaM float64 // matter density; sets the coupling (3/2)Ωm
	Sigma  float64 // filter width in grid cells; DefaultSigma if 0
	Ns     int     // filter sinc exponent; DefaultNs if 0
	Filter bool    // apply the isotropizing filter (on in production)
	Slab   bool    // use the slab FFT decomposition instead of pencils

	// Pool, when set, threads the k-space loops and the batched 1-D
	// transforms across the simulation's persistent worker pool. All pooled
	// loops are per-element independent, so the result is bitwise identical
	// to the serial path. Nil keeps the solver serial.
	Pool *par.Pool
}

// Poisson is the distributed long/medium-range force solver. It owns the
// pencil FFT, the planned block↔pencil redistributions, the precomputed
// k-space tables on this rank's share of the (Hermitian-halved) spectrum,
// and all solve scratch — steady-state Solve allocates nothing beyond the
// mpi runtime's one buffer per message (the sender's copy in-process, the
// received frame, handed to Recv in place, over a wire). The
// redistributions work on the ghosted fields in place: their block side is
// the decomposition's layout padded by the field's ghost width, so the
// forward reads rho's interior and the inverse writes each acceleration
// component's interior, with no owned-region copy between.
type Poisson struct {
	comm *mpi.Comm
	dec  *grid.Decomp
	pen  *pfft.Pencil
	opts Options
	pool *par.Pool

	// kernel is the composed Poisson kernel (3/2)Ωm·F(k)/λ(k) per local
	// half-spectrum z-pencil mode; dTab holds the GradSL4 factor per global
	// axis mode (three O(n) tables — the gradient loops recover the axis
	// mode from the row they walk, so no per-mode gradient storage is needed).
	kernel []float64
	dTab   [3][]float64
	kbox   pfft.Box // this rank's half-spectrum z-pencil box

	// Planned block↔x-pencil redistributions, keyed by the ghost width of
	// the fields they serve and built on first use (the solve's fields and
	// P(k)'s 1-ghost field), all staging sends in one pack buffer; and
	// persistent scratch.
	toPen   map[int]*pfft.Redistributor[float64]
	fromPen map[int]*pfft.Redistributor[float64]
	pack    pfft.Pack[float64]
	realBuf []float64    // x-pencil real field
	comp    []complex128 // half-spectrum gradient component

	// Persistent pool-dispatch bodies for the k-space loops; per-call
	// parameters (the spectrum slice, the gradient axis) live in the fields
	// below, published to the workers by the pool's channel send, so a
	// steady-state Solve allocates nothing.
	spec     []complex128
	gradD    int
	kernBody func(lo, hi int)
	gradBody func(lo, hi int)
}

// NewPoisson builds the solver. Collective over comm.
func NewPoisson(c *mpi.Comm, dec *grid.Decomp, opts Options) *Poisson {
	if opts.Sigma == 0 {
		opts.Sigma = DefaultSigma
	}
	if opts.Ns == 0 {
		opts.Ns = DefaultNs
	}
	n := dec.N
	var pen *pfft.Pencil
	if opts.Slab {
		pen = pfft.NewSlab(c, n)
	} else {
		pen = pfft.NewAuto(c, n)
	}
	p := &Poisson{comm: c, dec: dec, pen: pen, opts: opts, pool: opts.Pool}
	pen.SetPool(p.pool)

	p.kbox = pen.LocalZR()
	nk := p.kbox.Count()
	p.kernel = p.kernelTable()
	for d := 0; d < 3; d++ {
		p.dTab[d] = make([]float64, n[d])
		for m := 0; m < n[d]; m++ {
			p.dTab[d][m] = GradSL4(KMode(m, n[d]))
		}
	}

	p.toPen = map[int]*pfft.Redistributor[float64]{}
	p.fromPen = map[int]*pfft.Redistributor[float64]{}
	p.realBuf = make([]float64, pen.LocalX().Count())
	p.comp = make([]complex128, nk)
	p.kernBody = func(lo, hi int) {
		spec, kern := p.spec, p.kernel
		for i := lo; i < hi; i++ {
			v := spec[i]
			k := kern[i]
			spec[i] = complex(real(v)*k, imag(v)*k)
		}
	}
	p.gradBody = func(lo, hi int) {
		// acceleration = −∂ψ ↔ −i·D(k)·ψ̂. The half-spectrum z-pencil
		// stores z fastest, then y, then x: walk [lo, hi) one z-row at a
		// time, so the x and y modes cost one division per row and the z
		// mode indexes its table directly.
		spec, comp, dt, d := p.spec, p.comp, p.dTab[p.gradD], p.gradD
		sy, sz := p.kbox.Size(1), p.kbox.Size(2)
		for i := lo; i < hi; {
			row := i / sz
			end := min((row+1)*sz, hi)
			if d == 2 {
				// dt is axis d's table: only here may it take axis-2 bounds.
				dz := dt[p.kbox.Lo[2]:p.kbox.Hi[2]]
				for z := i - row*sz; i < end; i, z = i+1, z+1 {
					v := spec[i]
					dk := dz[z]
					comp[i] = complex(imag(v)*dk, -real(v)*dk)
				}
				continue
			}
			m := row/sy + p.kbox.Lo[0]
			if d == 1 {
				m = row%sy + p.kbox.Lo[1]
			}
			dk := dt[m]
			for ; i < end; i++ {
				v := spec[i]
				comp[i] = complex(imag(v)*dk, -real(v)*dk)
			}
		}
	}
	return p
}

// kernelTable composes the k-space Green's function on this rank's
// half-spectrum z-pencil: coupling × filter × inverse influence function,
// with the DC mode zeroed (mean density sources nothing). The influence
// function is separable, so the 1-D Laplacian eigenvalues Lap6 come from
// per-axis tables, and λ(k) = Lap6(kx)+Lap6(ky)+Lap6(kz) sums the table
// entries in Influence6's order: the same bits, without nine cosines per
// mode. The filter depends on |k| alone and comes from a RadialTable.
// oracle_test.go holds the per-mode kernelAt the table is checked against.
func (p *Poisson) kernelTable() []float64 {
	n := p.dec.N
	var lt [3][]float64
	for a := 0; a < 3; a++ {
		lt[a] = make([]float64, n[a])
		for m := range lt[a] {
			lt[a][m] = Lap6(KMode(m, n[a]))
		}
	}
	sigma, ns := p.opts.Sigma, p.opts.Ns
	filter := NewRadialTable(n, p.kbox, func(k2 float64) float64 {
		return Filter(math.Sqrt(k2), sigma, ns)
	})
	c := 1.5 * p.opts.OmegaM
	kernel := make([]float64, p.kbox.Count())
	p.pen.ForEachKR(func(mx, my, mz, idx int) {
		if mx == 0 && my == 0 && mz == 0 {
			return
		}
		g := 1 / (lt[0][mx] + lt[1][my] + lt[2][mz])
		f := 1.0
		if p.opts.Filter {
			f = filter.At(mx, my, mz)
		}
		kernel[idx] = c * f * g
	})
	return kernel
}

// Pencil exposes the underlying distributed FFT.
func (p *Poisson) Pencil() *pfft.Pencil { return p.pen }

// Comm returns the communicator the solver was built on.
func (p *Poisson) Comm() *mpi.Comm { return p.comm }

// Decomp returns the block decomposition the solver reads densities in.
func (p *Poisson) Decomp() *grid.Decomp { return p.dec }

// parFor shards a per-element-independent loop over the pool, or runs it
// inline when no pool is attached.
func (p *Poisson) parFor(n int, body func(lo, hi int)) {
	if p.pool != nil {
		p.pool.For(n, body)
		return
	}
	body(0, n)
}

// plan returns the block↔x-pencil redistribution for fields of the given
// ghost width in one direction, building it on first use. Plan
// construction is purely local, so laziness stays collective-safe.
func (p *Poisson) plan(plans map[int]*pfft.Redistributor[float64], ghost int, toPencil bool) *pfft.Redistributor[float64] {
	rd := plans[ghost]
	if rd == nil {
		block := p.dec.Layout().Padded(ghost)
		if toPencil {
			rd = pfft.NewRedistributor[float64](p.comm, block, p.pen.LayoutX())
		} else {
			rd = pfft.NewRedistributor[float64](p.comm, p.pen.LayoutX(), block)
		}
		rd.SetPack(&p.pack)
		plans[ghost] = rd
	}
	return rd
}

// Solve computes the acceleration field −∇ψ with ∇²ψ = (3/2)Ωm·δ from the
// deposited density (rho must already have ghost contributions folded in).
// The three acceleration components are stored into the interiors of
// acc[0..2] in place (the caller fills ghosts afterwards). Collective over
// comm.
func (p *Poisson) Solve(rho *grid.Field, acc *[3]*grid.Field) {
	psi := p.forwardPotential(rho)
	for d := 0; d < 3; d++ {
		p.spec, p.gradD = psi, d
		p.parFor(len(psi), p.gradBody)
		p.pen.InverseReal(p.comp, p.realBuf)
		p.plan(p.fromPen, acc[d].Ghost, false).Run(p.realBuf, acc[d].Data)
	}
	p.spec = nil
}

// forwardPotential applies the composed kernel to the density spectrum,
// returning ψ̂ in the half-spectrum z-pencil layout. The returned slice is
// pencil-plan scratch: it stays valid through the gradient inverses, which
// only touch the y/x-stage buffers.
func (p *Poisson) forwardPotential(rho *grid.Field) []complex128 {
	spec := p.Spectrum(rho)
	p.spec = spec
	p.parFor(len(spec), p.kernBody)
	return spec
}

// Spectrum moves the interior of rho (any ghost width, decomposed like this
// solver) into x-pencils, in place, and runs the real-to-complex forward
// transform — Hermitian symmetry halves the transform and all k-space work
// on the purely real field — returning ρ̂ on this rank's half-spectrum
// z-pencil share, in Pencil().ForEachKR index order. It is the first half
// of Solve, and the in-situ P(k) estimator bins it, so a rank holds one
// spectral plan. The slice is plan scratch, valid until the next transform
// on this plan. Collective over comm.
func (p *Poisson) Spectrum(rho *grid.Field) []complex128 {
	p.plan(p.toPen, rho.Ghost, true).Run(rho.Data, p.realBuf)
	return p.pen.ForwardReal(p.realBuf)
}
