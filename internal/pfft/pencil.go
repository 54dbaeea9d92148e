package pfft

import (
	"fmt"

	"hacc/internal/fft"
	"hacc/internal/mpi"
	"hacc/internal/par"
)

// Pencil is a distributed 3-D FFT using a 2-D (pencil) domain decomposition
// over a p1×p2 process grid. The forward transform runs
//
//	FFT_x → transpose(row comm) → FFT_y → transpose(col comm) → FFT_z
//
// leaving the result distributed in z-pencils; the inverse retraces the
// steps. With p2 == 1 this degenerates into the slab decomposition used by
// the first version of HACC (and on Roadrunner in Fig. 6).
//
// A Pencil is a plan in the FFTW sense: the transpose schedules
// (Redistributor plans) and all transpose scratch are built once and reused,
// so steady-state transforms allocate nothing beyond the mpi runtime's one
// buffer per message. Each path — complex (Forward/Inverse) and
// real-to-complex (ForwardReal/InverseReal) — builds its schedules and
// scratch on first use, so a plan that only ever runs one path carries only
// that path's state. Consequently the slices returned by Forward, Inverse,
// and ForwardReal are owned by the plan and valid only until the next
// transform call; input slices are consumed (transformed in place or
// overwritten). Transforms are collective and must not run concurrently on
// one plan.
type Pencil struct {
	comm    *mpi.Comm
	n       [3]int
	p1, p2  int
	c1, c2  int
	rowComm *mpi.Comm // ranks sharing c2, varying c1 (size p1)
	colComm *mpi.Comm // ranks sharing c1, varying c2 (size p2)

	layX, layY, layZ    *Layout
	planX, planY, planZ *fft.Plan
	rowsX, rowsY, rowsZ int

	// Planned transposes and persistent scratch for the complex path,
	// built lazily on first use (initComplex).
	rowFwd, rowInv   *Redistributor[complex128] // X↔Y within my row
	colFwd, colInv   *Redistributor[complex128] // Y↔Z within my column
	bufX, bufY, bufZ []complex128

	// Real-to-complex state on the half grid [n0/2+1, n1, n2], built
	// lazily on first use (purely local, so laziness stays collective-safe).
	nh                  [3]int
	layXr, layZr        *Layout
	rowFwdR, rowInvR    *Redistributor[complex128]
	colFwdR, colInvR    *Redistributor[complex128]
	bufXr, bufYr, bufZr []complex128
	rowsYr, rowsZr      int

	// pack is the one send staging buffer of every transpose plan above:
	// transforms run one transpose at a time.
	pack Pack[complex128]

	// pool, when set, dispatches the batched 1-D transforms across the
	// worker pool; rows are independent so the result is bitwise identical
	// to the serial path. The dispatch bodies are built once and read their
	// per-call parameters from the fields below (published to the workers by
	// the pool's channel send), so steady-state dispatch allocates nothing.
	pool         *par.Pool
	batchPlan    *fft.Plan
	batchData    []complex128
	batchInverse bool
	batchBody    func(lo, hi int)
	r2cSrc       []float64
	c2rDst       []float64
	r2cBody      func(lo, hi int)
	c2rBody      func(lo, hi int)
}

// NewPencil creates a distributed FFT plan on comm for an n[0]×n[1]×n[2]
// grid using a p1×p2 process grid; p1·p2 must equal the communicator size.
// Every rank of comm must call NewPencil collectively (it splits
// sub-communicators).
func NewPencil(c *mpi.Comm, n [3]int, p1, p2 int) *Pencil {
	if p1*p2 != c.Size() {
		panic(fmt.Sprintf("pfft: %d×%d process grid != comm size %d", p1, p2, c.Size()))
	}
	if p1 > n[0] || p1 > n[1] || p2 > n[1] || p2 > n[2] {
		panic(fmt.Sprintf("pfft: process grid %d×%d too large for %v grid", p1, p2, n))
	}
	me := c.Rank()
	pp := &Pencil{comm: c, n: n, p1: p1, p2: p2, c1: me / p2, c2: me % p2}
	pp.layX = PencilX(n, p1, p2)
	pp.layY = PencilY(n, p1, p2)
	pp.layZ = PencilZ(n, p1, p2)
	pp.rowComm = c.Split(pp.c2, pp.c1)
	pp.colComm = c.Split(pp.c1, pp.c2)

	pp.planX = fft.NewPlan(n[0])
	if n[1] == n[0] {
		pp.planY = pp.planX
	} else {
		pp.planY = fft.NewPlan(n[1])
	}
	switch {
	case n[2] == n[0]:
		pp.planZ = pp.planX
	case n[2] == n[1]:
		pp.planZ = pp.planY
	default:
		pp.planZ = fft.NewPlan(n[2])
	}
	pp.rowsX = pp.layX.Boxes[me].Count() / n[0]
	pp.rowsY = pp.layY.Boxes[me].Count() / n[1]
	pp.rowsZ = pp.layZ.Boxes[me].Count() / n[2]
	pp.batchBody = func(lo, hi int) {
		n := pp.batchPlan.N()
		if pp.batchInverse {
			pp.batchPlan.InverseBatch(pp.batchData[lo*n:hi*n], hi-lo)
		} else {
			pp.batchPlan.ForwardBatch(pp.batchData[lo*n:hi*n], hi-lo)
		}
	}
	return pp
}

// restrictTransposes builds the row- and column-restricted layout pairs for
// the X→Y and Y→Z transposes of a pencil decomposition of grid n.
func restrictTransposes(n [3]int, p1, p2, c1, c2 int, layX, layY, layZ *Layout) (rowFrom, rowTo, colFrom, colTo *Layout) {
	// X→Y within my row: all boxes share my c2.
	rowFrom = &Layout{N: n, Order: layX.Order, Boxes: make([]Box, p1)}
	rowTo = &Layout{N: n, Order: layY.Order, Boxes: make([]Box, p1)}
	for j := 0; j < p1; j++ {
		rowFrom.Boxes[j] = layX.Boxes[j*p2+c2]
		rowTo.Boxes[j] = layY.Boxes[j*p2+c2]
	}
	// Y→Z within my column: boxes share my c1.
	colFrom = &Layout{N: n, Order: layY.Order, Boxes: make([]Box, p2)}
	colTo = &Layout{N: n, Order: layZ.Order, Boxes: make([]Box, p2)}
	for j := 0; j < p2; j++ {
		colFrom.Boxes[j] = layY.Boxes[c1*p2+j]
		colTo.Boxes[j] = layZ.Boxes[c1*p2+j]
	}
	return
}

// NewSlab creates a slab-decomposed FFT (1-D process grid), the
// first-generation HACC decomposition subject to Nrank < N.
func NewSlab(c *mpi.Comm, n [3]int) *Pencil {
	return NewPencil(c, n, c.Size(), 1)
}

// NewAuto creates a pencil FFT with a balanced process grid.
func NewAuto(c *mpi.Comm, n [3]int) *Pencil {
	d := mpi.BalancedDims(c.Size(), 2)
	return NewPencil(c, n, d[0], d[1])
}

// SetPool attaches a worker pool used to thread the batched 1-D transforms;
// nil (the default) keeps them serial. Not collective — each rank may choose
// independently, and the numerical result is identical either way.
func (p *Pencil) SetPool(pool *par.Pool) { p.pool = pool }

// LayoutX returns the input layout (x-pencils).
func (p *Pencil) LayoutX() *Layout { return p.layX }

// LayoutZ returns the spectral-space layout (z-pencils).
func (p *Pencil) LayoutZ() *Layout { return p.layZ }

// Comm returns the communicator the plan was built on.
func (p *Pencil) Comm() *mpi.Comm { return p.comm }

// N returns the global grid dimensions.
func (p *Pencil) N() [3]int { return p.n }

// LocalX returns this rank's box in the x-pencil layout.
func (p *Pencil) LocalX() Box { return p.layX.Boxes[p.comm.Rank()] }

// LocalZ returns this rank's box in the z-pencil layout.
func (p *Pencil) LocalZ() Box { return p.layZ.Boxes[p.comm.Rank()] }

// batch runs the 1-D transform over `rows` contiguous rows, sharded across
// the pool when one is attached (each row is independent, so threading is
// bitwise-neutral).
func (p *Pencil) batch(pl *fft.Plan, data []complex128, rows int, inverse bool) {
	if p.pool == nil || rows < 2 {
		if inverse {
			pl.InverseBatch(data, rows)
		} else {
			pl.ForwardBatch(data, rows)
		}
		return
	}
	p.batchPlan, p.batchData, p.batchInverse = pl, data, inverse
	p.pool.ForGrain(rows, 1, p.batchBody)
	p.batchData = nil // don't retain caller slices between calls
}

// initComplex lazily builds the complex path's transpose plans, restricted
// to my row/column, and its persistent scratch. Plan construction is purely
// local (the sub-communicators are split in NewPencil), so laziness stays
// collective-safe.
func (p *Pencil) initComplex() {
	if p.rowFwd != nil {
		return
	}
	rowFrom, rowTo, colFrom, colTo := restrictTransposes(p.n, p.p1, p.p2, p.c1, p.c2,
		p.layX, p.layY, p.layZ)
	p.rowFwd = NewRedistributor[complex128](p.rowComm, rowFrom, rowTo)
	p.rowInv = NewRedistributor[complex128](p.rowComm, rowTo, rowFrom)
	p.colFwd = NewRedistributor[complex128](p.colComm, colFrom, colTo)
	p.colInv = NewRedistributor[complex128](p.colComm, colTo, colFrom)
	p.sharePack(p.rowFwd, p.rowInv, p.colFwd, p.colInv)
	me := p.comm.Rank()
	p.bufX = make([]complex128, p.layX.Boxes[me].Count())
	p.bufY = make([]complex128, p.layY.Boxes[me].Count())
	p.bufZ = make([]complex128, p.layZ.Boxes[me].Count())
}

// sharePack points the given transpose plans at the plan's one pack buffer.
func (p *Pencil) sharePack(rds ...*Redistributor[complex128]) {
	for _, rd := range rds {
		rd.SetPack(&p.pack)
	}
}

// Forward transforms data (local x-pencil block, x fastest) and returns the
// spectral coefficients in the z-pencil layout (z fastest). The input slice
// is consumed; the returned slice is plan-owned scratch, valid until the
// next transform call.
func (p *Pencil) Forward(data []complex128) []complex128 {
	p.initComplex()
	if len(data) != len(p.bufX) {
		panic(fmt.Sprintf("pfft: forward input length %d != local x-pencil %d",
			len(data), len(p.bufX)))
	}
	p.batch(p.planX, data, p.rowsX, false)
	p.rowFwd.Run(data, p.bufY)
	p.batch(p.planY, p.bufY, p.rowsY, false)
	p.colFwd.Run(p.bufY, p.bufZ)
	p.batch(p.planZ, p.bufZ, p.rowsZ, false)
	return p.bufZ
}

// Inverse transforms spectral data (z-pencil layout) back to real space
// (x-pencil layout), scaled so that Inverse(Forward(x)) == x. The input is
// consumed; the returned slice is plan-owned scratch, valid until the next
// transform call.
func (p *Pencil) Inverse(data []complex128) []complex128 {
	p.initComplex()
	if len(data) != len(p.bufZ) {
		panic(fmt.Sprintf("pfft: inverse input length %d != local z-pencil %d",
			len(data), len(p.bufZ)))
	}
	p.batch(p.planZ, data, p.rowsZ, true)
	p.colInv.Run(data, p.bufY)
	p.batch(p.planY, p.bufY, p.rowsY, true)
	p.rowInv.Run(p.bufY, p.bufX)
	p.batch(p.planX, p.bufX, p.rowsX, true)
	return p.bufX
}

// ForEachK visits every local point of the z-pencil (spectral) layout,
// passing global mode indices and the local storage index.
func (p *Pencil) ForEachK(fn func(kx, ky, kz, idx int)) {
	b := p.LocalZ()
	forEach(b, p.layZ.Order, func(g [3]int, k int) {
		fn(g[0], g[1], g[2], k)
	})
}

// initR2C lazily builds the half-spectrum machinery: pencil layouts of the
// [n0/2+1, n1, n2] half grid (same y/z splits as the complex path, so the
// real input layout coincides with LayoutX), transpose plans restricted to
// my row/column, and persistent scratch. Plan construction is purely local.
// When the x split exceeds the half extent (deep slab decompositions) some
// ranks simply own empty half-grid pencils and stay idle through the y/z
// stages.
func (p *Pencil) initR2C() {
	if p.layZr != nil {
		return
	}
	nh := [3]int{p.planX.HalfLen(), p.n[1], p.n[2]}
	p.nh = nh
	p.layXr = PencilX(nh, p.p1, p.p2)
	layYr := PencilY(nh, p.p1, p.p2)
	p.layZr = PencilZ(nh, p.p1, p.p2)
	rowFrom, rowTo, colFrom, colTo := restrictTransposes(nh, p.p1, p.p2, p.c1, p.c2,
		p.layXr, layYr, p.layZr)
	p.rowFwdR = NewRedistributor[complex128](p.rowComm, rowFrom, rowTo)
	p.rowInvR = NewRedistributor[complex128](p.rowComm, rowTo, rowFrom)
	p.colFwdR = NewRedistributor[complex128](p.colComm, colFrom, colTo)
	p.colInvR = NewRedistributor[complex128](p.colComm, colTo, colFrom)
	p.sharePack(p.rowFwdR, p.rowInvR, p.colFwdR, p.colInvR)
	me := p.comm.Rank()
	p.rowsYr = layYr.Boxes[me].Count() / nh[1]
	p.rowsZr = p.layZr.Boxes[me].Count() / nh[2]
	p.bufXr = make([]complex128, p.layXr.Boxes[me].Count())
	p.bufYr = make([]complex128, layYr.Boxes[me].Count())
	p.bufZr = make([]complex128, p.layZr.Boxes[me].Count())
	n0, nh0 := p.n[0], nh[0]
	p.r2cBody = func(lo, hi int) {
		p.planX.ForwardRealBatch(p.bufXr[lo*nh0:hi*nh0], p.r2cSrc[lo*n0:hi*n0], hi-lo)
	}
	p.c2rBody = func(lo, hi int) {
		p.planX.InverseRealBatch(p.c2rDst[lo*n0:hi*n0], p.bufXr[lo*nh0:hi*nh0], hi-lo)
	}
}

// NHalf returns the half-spectrum grid dimensions [n0/2+1, n1, n2].
func (p *Pencil) NHalf() [3]int {
	p.initR2C()
	return p.nh
}

// LocalZR returns this rank's box in the half-spectrum z-pencil layout;
// x indices are modes kx ∈ [0, n0/2], the implied negative-kx modes being
// conjugates.
func (p *Pencil) LocalZR() Box {
	p.initR2C()
	return p.layZr.Boxes[p.comm.Rank()]
}

// ForEachKR visits every local point of the half-spectrum z-pencil layout,
// passing global mode indices (kx ∈ [0, n0/2]) and the local storage index.
func (p *Pencil) ForEachKR(fn func(kx, ky, kz, idx int)) {
	p.initR2C()
	forEach(p.layZr.Boxes[p.comm.Rank()], p.layZr.Order, func(g [3]int, k int) {
		fn(g[0], g[1], g[2], k)
	})
}

// ForwardReal transforms a real field (local x-pencil block, x fastest) and
// returns the non-negative-kx half of its spectrum in the half-grid z-pencil
// layout. Hermitian symmetry makes the omitted half redundant, so the x
// transform, both transposes, and all downstream k-space work are halved.
// The input is left untouched; the returned slice is plan-owned scratch,
// valid until the next transform call.
func (p *Pencil) ForwardReal(src []float64) []complex128 {
	p.initR2C()
	if len(src) != p.rowsX*p.n[0] {
		panic(fmt.Sprintf("pfft: real forward input length %d != local x-pencil %d",
			len(src), p.rowsX*p.n[0]))
	}
	if p.pool == nil || p.rowsX < 2 {
		p.planX.ForwardRealBatch(p.bufXr, src, p.rowsX)
	} else {
		p.r2cSrc = src
		p.pool.ForGrain(p.rowsX, 1, p.r2cBody)
		p.r2cSrc = nil
	}
	p.rowFwdR.Run(p.bufXr, p.bufYr)
	p.batch(p.planY, p.bufYr, p.rowsYr, false)
	p.colFwdR.Run(p.bufYr, p.bufZr)
	p.batch(p.planZ, p.bufZr, p.rowsZr, false)
	return p.bufZr
}

// InverseReal transforms a half spectrum (half-grid z-pencil layout, as
// returned by ForwardReal, possibly scaled by Hermitian-preserving kernels)
// back to a real field, written into dst (local x-pencil layout), scaled so
// that InverseReal(ForwardReal(x)) == x. The spec slice is consumed.
func (p *Pencil) InverseReal(spec []complex128, dst []float64) {
	p.initR2C()
	if len(spec) != len(p.bufZr) {
		panic(fmt.Sprintf("pfft: real inverse input length %d != local half z-pencil %d",
			len(spec), len(p.bufZr)))
	}
	if len(dst) != p.rowsX*p.n[0] {
		panic(fmt.Sprintf("pfft: real inverse output length %d != local x-pencil %d",
			len(dst), p.rowsX*p.n[0]))
	}
	p.batch(p.planZ, spec, p.rowsZr, true)
	p.colInvR.Run(spec, p.bufYr)
	p.batch(p.planY, p.bufYr, p.rowsYr, true)
	p.rowInvR.Run(p.bufYr, p.bufXr)
	if p.pool == nil || p.rowsX < 2 {
		p.planX.InverseRealBatch(dst, p.bufXr, p.rowsX)
	} else {
		p.c2rDst = dst
		p.pool.ForGrain(p.rowsX, 1, p.c2rBody)
		p.c2rDst = nil
	}
}
