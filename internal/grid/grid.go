package grid

import (
	"fmt"
	"math"

	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// Decomp is the rectilinear (possibly non-cubic, possibly non-uniform) 3-D
// block decomposition of an N[0]×N[1]×N[2] periodic grid over a
// Dims[0]×Dims[1]×Dims[2] process grid. Interval boundaries along each axis
// are explicit cut arrays, so cost-driven rebalancing can shift slab
// boundaries while everything downstream (fields, exchangers, domain plans)
// keeps working off Box/RankOf.
type Decomp struct {
	N    [3]int
	Dims [3]int
	lay  *pfft.Layout
	cuts [3][]int // cuts[i] has Dims[i]+1 ascending entries, 0..N[i]
}

// UniformCuts returns the equal-chunk cut arrays (`c*n/p` boundaries) that
// reproduce the classic uniform decomposition exactly.
func UniformCuts(n [3]int, dims [3]int) [3][]int {
	var cuts [3][]int
	for i := 0; i < 3; i++ {
		cuts[i] = make([]int, dims[i]+1)
		for c := 0; c <= dims[i]; c++ {
			cuts[i][c] = c * n[i] / dims[i]
		}
	}
	return cuts
}

// NewDecomp builds a uniform decomposition for the given communicator size
// with a balanced process grid, or with explicit dims when provided.
func NewDecomp(n [3]int, size int, dims ...int) *Decomp {
	var d [3]int
	if len(dims) == 3 {
		d = [3]int{dims[0], dims[1], dims[2]}
	} else {
		b := mpi.BalancedDims(size, 3)
		d = [3]int{b[0], b[1], b[2]}
	}
	if d[0]*d[1]*d[2] != size {
		panic(fmt.Sprintf("grid: process grid %v != size %d", d, size))
	}
	for i := 0; i < 3; i++ {
		if d[i] > n[i] {
			panic(fmt.Sprintf("grid: process grid %v exceeds grid %v", d, n))
		}
	}
	return NewDecompCuts(n, d, UniformCuts(n, d))
}

// NewDecompCuts builds a decomposition with explicit per-axis interval
// boundaries. cuts[i] must hold dims[i]+1 strictly increasing values from 0
// to n[i]. Rank order matches pfft.Block3D (row-major, z fastest).
func NewDecompCuts(n [3]int, dims [3]int, cuts [3][]int) *Decomp {
	for i := 0; i < 3; i++ {
		if len(cuts[i]) != dims[i]+1 {
			panic(fmt.Sprintf("grid: axis %d has %d cuts, want %d", i, len(cuts[i]), dims[i]+1))
		}
		if cuts[i][0] != 0 || cuts[i][dims[i]] != n[i] {
			panic(fmt.Sprintf("grid: axis %d cuts %v must span [0,%d]", i, cuts[i], n[i]))
		}
		for c := 0; c < dims[i]; c++ {
			if cuts[i][c] >= cuts[i][c+1] {
				panic(fmt.Sprintf("grid: axis %d cuts %v not strictly increasing", i, cuts[i]))
			}
		}
	}
	own := [3][]int{append([]int(nil), cuts[0]...), append([]int(nil), cuts[1]...), append([]int(nil), cuts[2]...)}
	p := dims[0] * dims[1] * dims[2]
	lay := &pfft.Layout{N: n, Order: [3]int{0, 1, 2}}
	lay.Boxes = make([]pfft.Box, p)
	for r := 0; r < p; r++ {
		cz := r % dims[2]
		cy := (r / dims[2]) % dims[1]
		cx := r / (dims[1] * dims[2])
		var b pfft.Box
		b.Lo[0], b.Hi[0] = own[0][cx], own[0][cx+1]
		b.Lo[1], b.Hi[1] = own[1][cy], own[1][cy+1]
		b.Lo[2], b.Hi[2] = own[2][cz], own[2][cz+1]
		lay.Boxes[r] = b
	}
	return &Decomp{N: n, Dims: dims, lay: lay, cuts: own}
}

// Layout returns the block layout (one box per rank, z fastest storage).
func (d *Decomp) Layout() *pfft.Layout { return d.lay }

// Box returns the box owned by a rank.
func (d *Decomp) Box(rank int) pfft.Box { return d.lay.Boxes[rank] }

// NumRanks returns the total number of ranks in the decomposition.
func (d *Decomp) NumRanks() int { return len(d.lay.Boxes) }

// Cuts returns the per-axis interval boundaries. The slices are owned by the
// decomposition and must not be mutated.
func (d *Decomp) Cuts() [3][]int { return d.cuts }

// RankOf returns the owner rank of the (periodically wrapped) position.
func (d *Decomp) RankOf(x, y, z float64) int {
	g := [3]float64{x, y, z}
	var co [3]int
	for i := 0; i < 3; i++ {
		n := d.N[i]
		v := int(g[i])
		v = ((v % n) + n) % n
		// The owner is the largest c with cuts[c] <= v. Dims are small
		// (≤ a few per axis), so an ascending scan beats a binary search.
		cs := d.cuts[i]
		c := 0
		for c+1 < d.Dims[i] && cs[c+1] <= v {
			c++
		}
		co[i] = c
	}
	return (co[0]*d.Dims[1]+co[1])*d.Dims[2] + co[2]
}

// Field is one rank's block of a distributed scalar field, with ghost cells
// of width Ghost on every side. Storage is row-major (x, y, z) with z
// fastest, including ghosts.
type Field struct {
	N     [3]int
	Box   pfft.Box
	Ghost int
	Data  []float64

	size [3]int // owned sizes
	ext  [3]int // extended sizes (owned + 2*ghost)
}

// NewField allocates a zeroed field for the given owned box.
func NewField(n [3]int, box pfft.Box, ghost int) *Field {
	f := &Field{N: n, Box: box, Ghost: ghost}
	for i := 0; i < 3; i++ {
		f.size[i] = box.Size(i)
		f.ext[i] = f.size[i] + 2*ghost
		if ghost >= n[i] {
			panic(fmt.Sprintf("grid: ghost width %d too large for grid %v", ghost, n))
		}
	}
	f.Data = make([]float64, f.ext[0]*f.ext[1]*f.ext[2])
	return f
}

// localCoord reduces a global coordinate along one axis to a local extended
// coordinate in [-ghost, size+ghost), wrapping periodically. Owned cells are
// preferred over ghost aliases, so writes to owned coordinates always hit
// the interior even when the halo wraps onto the same rank. The owned,
// unwrapped case — nearly every call — returns before any modulo.
func localCoord(x, lo, size, n, ghost int) int {
	if d := x - lo; uint(d) < uint(size) {
		return d
	}
	return mustWrapLocalCoord(x, lo, size, n, ghost)
}

// mustWrapLocalCoord is localCoord's out-of-line general case (kept apart
// so the fast path inlines).
func mustWrapLocalCoord(x, lo, size, n, ghost int) int {
	l, ok := wrapLocalCoord(x, lo, size, n, ghost)
	if !ok {
		panic(fmt.Sprintf("grid: coordinate %d outside box [%d,%d)+ghost %d (n=%d)", x, lo, lo+size, ghost, n))
	}
	return l
}

// wrapLocalCoord resolves the periodic wrap; ok is false when x lies
// outside the box plus its ghost halo under every periodic image.
func wrapLocalCoord(x, lo, size, n, ghost int) (l int, ok bool) {
	d := x - lo
	dm := ((d % n) + n) % n
	switch {
	case dm < size:
		return dm, true
	case dm-n >= -ghost:
		return dm - n, true
	case dm < size+ghost:
		return dm, true
	}
	return 0, false
}

// index converts global cell coordinates (possibly in the ghost halo,
// possibly wrapped across the periodic boundary) to a local storage index.
func (f *Field) index(x, y, z int) int {
	lx := localCoord(x, f.Box.Lo[0], f.size[0], f.N[0], f.Ghost) + f.Ghost
	ly := localCoord(y, f.Box.Lo[1], f.size[1], f.N[1], f.Ghost) + f.Ghost
	lz := localCoord(z, f.Box.Lo[2], f.size[2], f.N[2], f.Ghost) + f.Ghost
	return (lx*f.ext[1]+ly)*f.ext[2] + lz
}

// cloud returns the storage indices of a CIC cloud based at global cell
// (ix,iy,iz): the four z-rows' base cells and the in-row offset iz1 of the
// z+1 cells (uniform across rows). Each axis's two local coordinates are
// resolved once — six localCoord calls for the eight cells.
func (f *Field) cloud(ix, iy, iz int) (i000, i100, i010, i110, iz1 int) {
	g := f.Ghost
	x0 := localCoord(ix, f.Box.Lo[0], f.size[0], f.N[0], g) + g
	x1 := localCoord(ix+1, f.Box.Lo[0], f.size[0], f.N[0], g) + g
	y0 := localCoord(iy, f.Box.Lo[1], f.size[1], f.N[1], g) + g
	y1 := localCoord(iy+1, f.Box.Lo[1], f.size[1], f.N[1], g) + g
	z0 := localCoord(iz, f.Box.Lo[2], f.size[2], f.N[2], g) + g
	z1 := localCoord(iz+1, f.Box.Lo[2], f.size[2], f.N[2], g) + g
	e1, e2 := f.ext[1], f.ext[2]
	i000 = (x0*e1+y0)*e2 + z0
	i100 = (x1*e1+y0)*e2 + z0
	i010 = (x0*e1+y1)*e2 + z0
	i110 = (x1*e1+y1)*e2 + z0
	return i000, i100, i010, i110, z1 - z0
}

// FirstEscaped returns the index of the first particle whose CIC cloud does
// not fit inside the field's box plus ghost halo — the positions DepositCIC
// and InterpCIC panic on — or -1 when every cloud fits. Callers that move
// particles between deposits (a time step too long for the overload width)
// use it to report the condition as an error instead.
func (f *Field) FirstEscaped(xs, ys, zs []float32) int {
	for i := range xs {
		if !f.axisFits(0, xs[i]) || !f.axisFits(1, ys[i]) || !f.axisFits(2, zs[i]) {
			return i
		}
	}
	return -1
}

// axisFits reports whether the two cells a CIC cloud at coordinate v covers
// along axis a both map into the extended box.
func (f *Field) axisFits(a int, v float32) bool {
	c := int(math.Floor(float64(v)))
	lo, size := f.Box.Lo[a], f.size[a]
	if uint(c-lo) < uint(size-1) {
		return true
	}
	_, ok0 := wrapLocalCoord(c, lo, size, f.N[a], f.Ghost)
	_, ok1 := wrapLocalCoord(c+1, lo, size, f.N[a], f.Ghost)
	return ok0 && ok1
}

// At returns the value at global cell coordinates.
func (f *Field) At(x, y, z int) float64 { return f.Data[f.index(x, y, z)] }

// Set stores a value at global cell coordinates.
func (f *Field) Set(x, y, z int, v float64) { f.Data[f.index(x, y, z)] = v }

// Add accumulates into the cell at global coordinates.
func (f *Field) Add(x, y, z int, v float64) { f.Data[f.index(x, y, z)] += v }

// Fill sets every element (including ghosts) to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Owned extracts the interior (owned) region as a contiguous array in the
// canonical block-layout order (z fastest). The block↔pencil
// redistributions do not need it: a padded pfft layout reads and writes
// the interior in place.
func (f *Field) Owned() []float64 {
	dst := make([]float64, f.size[0]*f.size[1]*f.size[2])
	k := 0
	for x := 0; x < f.size[0]; x++ {
		for y := 0; y < f.size[1]; y++ {
			base := ((x+f.Ghost)*f.ext[1]+y+f.Ghost)*f.ext[2] + f.Ghost
			k += copy(dst[k:k+f.size[2]], f.Data[base:base+f.size[2]])
		}
	}
	return dst
}

// SetOwned stores a contiguous owned-region array (block-layout order) back
// into the field interior; ghosts are left untouched.
func (f *Field) SetOwned(v []float64) {
	if len(v) != f.size[0]*f.size[1]*f.size[2] {
		panic(fmt.Sprintf("grid: SetOwned length %d != %d", len(v), f.size[0]*f.size[1]*f.size[2]))
	}
	k := 0
	for x := 0; x < f.size[0]; x++ {
		for y := 0; y < f.size[1]; y++ {
			base := ((x+f.Ghost)*f.ext[1]+y+f.Ghost)*f.ext[2] + f.Ghost
			copy(f.Data[base:base+f.size[2]], v[k:k+f.size[2]])
			k += f.size[2]
		}
	}
}

// ZeroGhosts clears the ghost halo.
func (f *Field) ZeroGhosts() {
	for x := 0; x < f.ext[0]; x++ {
		for y := 0; y < f.ext[1]; y++ {
			for z := 0; z < f.ext[2]; z++ {
				if x >= f.Ghost && x < f.ext[0]-f.Ghost &&
					y >= f.Ghost && y < f.ext[1]-f.Ghost &&
					z >= f.Ghost && z < f.ext[2]-f.Ghost {
					continue
				}
				f.Data[(x*f.ext[1]+y)*f.ext[2]+z] = 0
			}
		}
	}
}

// TotalOwned sums the interior cells (diagnostic).
func (f *Field) TotalOwned() float64 {
	var s float64
	for x := 0; x < f.size[0]; x++ {
		for y := 0; y < f.size[1]; y++ {
			base := ((x+f.Ghost)*f.ext[1]+y+f.Ghost)*f.ext[2] + f.Ghost
			for z := 0; z < f.size[2]; z++ {
				s += f.Data[base+z]
			}
		}
	}
	return s
}
