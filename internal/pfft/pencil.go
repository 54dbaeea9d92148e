package pfft

import (
	"fmt"

	"hacc/internal/fft"
	"hacc/internal/mpi"
	"hacc/internal/par"
)

// Pencil is a distributed real-to-complex 3-D FFT using a 2-D (pencil)
// domain decomposition over a p1×p2 process grid. The forward transform runs
//
//	r2c FFT_x → transpose(row comm) → FFT_y → transpose(col comm) → FFT_z
//
// on a real field in x-pencils, leaving the non-negative-kx half of its
// spectrum — the Hermitian half grid [n0/2+1, n1, n2] — distributed in
// z-pencils; the inverse retraces the steps and ends in a c2r x transform.
// With p2 == 1 this degenerates into the slab decomposition used by the
// first version of HACC (and on Roadrunner in Fig. 6).
//
// A Pencil is a plan in the FFTW sense: NewPencil builds the transpose
// schedules (Redistributor plans) and all transpose scratch once, so
// steady-state transforms allocate nothing beyond the mpi runtime's one
// buffer per message. Consequently the slice returned by ForwardReal is
// owned by the plan and valid only until the next transform call; the
// spectrum passed to InverseReal is consumed. Transforms are collective and
// must not run concurrently on one plan.
type Pencil struct {
	comm    *mpi.Comm
	n       [3]int
	p1, p2  int
	c1, c2  int
	rowComm *mpi.Comm // ranks sharing c2, varying c1 (size p1)
	colComm *mpi.Comm // ranks sharing c1, varying c2 (size p2)

	layX                *Layout // real input x-pencils
	planX, planY, planZ *fft.Plan
	rowsX               int

	// Half-grid [n0/2+1, n1, n2] state: x- and z-pencil layouts, the
	// transposes restricted to my row/column, and persistent scratch.
	nh                  [3]int
	layXr, layZr        *Layout
	rowFwdR, rowInvR    *Redistributor[complex128] // X↔Y within my row
	colFwdR, colInvR    *Redistributor[complex128] // Y↔Z within my column
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
// sub-communicators). The half grid keeps the real grid's y/z splits, so
// the real input layout is LayoutX; when the x split exceeds the half
// extent (deep slab decompositions) some ranks simply own empty half-grid
// pencils and stay idle through the y/z stages.
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

	nh := [3]int{pp.planX.HalfLen(), n[1], n[2]}
	pp.nh = nh
	pp.layXr = PencilX(nh, p1, p2)
	layYr := PencilY(nh, p1, p2)
	pp.layZr = PencilZ(nh, p1, p2)
	rowFrom, rowTo, colFrom, colTo := restrictTransposes(nh, p1, p2, pp.c1, pp.c2,
		pp.layXr, layYr, pp.layZr)
	pp.rowFwdR = NewRedistributor[complex128](pp.rowComm, rowFrom, rowTo)
	pp.rowInvR = NewRedistributor[complex128](pp.rowComm, rowTo, rowFrom)
	pp.colFwdR = NewRedistributor[complex128](pp.colComm, colFrom, colTo)
	pp.colInvR = NewRedistributor[complex128](pp.colComm, colTo, colFrom)
	for _, rd := range []*Redistributor[complex128]{pp.rowFwdR, pp.rowInvR, pp.colFwdR, pp.colInvR} {
		rd.SetPack(&pp.pack)
	}
	pp.rowsYr = layYr.Boxes[me].Count() / nh[1]
	pp.rowsZr = pp.layZr.Boxes[me].Count() / nh[2]
	pp.bufXr = make([]complex128, pp.layXr.Boxes[me].Count())
	pp.bufYr = make([]complex128, layYr.Boxes[me].Count())
	pp.bufZr = make([]complex128, pp.layZr.Boxes[me].Count())

	pp.batchBody = func(lo, hi int) {
		n := pp.batchPlan.N()
		if pp.batchInverse {
			pp.batchPlan.InverseBatch(pp.batchData[lo*n:hi*n], hi-lo)
		} else {
			pp.batchPlan.ForwardBatch(pp.batchData[lo*n:hi*n], hi-lo)
		}
	}
	n0, nh0 := n[0], nh[0]
	pp.r2cBody = func(lo, hi int) {
		pp.planX.ForwardRealBatch(pp.bufXr[lo*nh0:hi*nh0], pp.r2cSrc[lo*n0:hi*n0], hi-lo)
	}
	pp.c2rBody = func(lo, hi int) {
		pp.planX.InverseRealBatch(pp.c2rDst[lo*n0:hi*n0], pp.bufXr[lo*nh0:hi*nh0], hi-lo)
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

// LayoutX returns the real input layout (x-pencils).
func (p *Pencil) LayoutX() *Layout { return p.layX }

// Comm returns the communicator the plan was built on.
func (p *Pencil) Comm() *mpi.Comm { return p.comm }

// N returns the global grid dimensions.
func (p *Pencil) N() [3]int { return p.n }

// LocalX returns this rank's box in the real x-pencil layout.
func (p *Pencil) LocalX() Box { return p.layX.Boxes[p.comm.Rank()] }

// NHalf returns the half-spectrum grid dimensions [n0/2+1, n1, n2].
func (p *Pencil) NHalf() [3]int { return p.nh }

// LocalZR returns this rank's box in the half-spectrum z-pencil layout;
// x indices are modes kx ∈ [0, n0/2], the implied negative-kx modes being
// conjugates.
func (p *Pencil) LocalZR() Box { return p.layZr.Boxes[p.comm.Rank()] }

// ForEachKR visits every local point of the half-spectrum z-pencil layout,
// passing global mode indices (kx ∈ [0, n0/2]) and the local storage index.
func (p *Pencil) ForEachKR(fn func(kx, ky, kz, idx int)) {
	forEach(p.LocalZR(), p.layZr.Order, func(g [3]int, k int) {
		fn(g[0], g[1], g[2], k)
	})
}

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

// ForwardReal transforms a real field (local x-pencil block, x fastest) and
// returns the non-negative-kx half of its spectrum in the half-grid z-pencil
// layout. Hermitian symmetry makes the omitted half redundant, so the x
// transform, both transposes, and all downstream k-space work are halved.
// The input is left untouched; the returned slice is plan-owned scratch,
// valid until the next transform call.
func (p *Pencil) ForwardReal(src []float64) []complex128 {
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
