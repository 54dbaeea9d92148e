package shortrange

import (
	"math"

	"hacc/internal/par"
)

// ChainingMesh is the direct particle-particle short-range backend (the
// P3M local solver HACC runs on accelerated systems like Roadrunner, §II).
// Particles are binned into cells of side ≥ r_cut; each cell's particles
// share one interaction list from the 27 surrounding cells — the "no
// mediating tree" configuration with large Nd. As a Blocks index the cells
// are the blocks, and Build sorts the driver's working arrays by cell.
type ChainingMesh struct {
	Pairs

	dims   [3]int
	lo     [3]float32
	inv    float32 // 1/cellSize
	starts []int32 // CSR cell offsets, len = ncells+1

	cellSize float64
	// Binning scratch and the sort's second buffer, reused across builds
	// (zero-allocation sub-cycling).
	cellOf     []int32
	cursor     []int32
	sx, sy, sz []float32
}

// NewMesh returns an empty chaining mesh with the given cell size (use the
// kernel's RCut or slightly larger); call Rebuild, or Load and Build, to
// populate it.
func NewMesh(cellSize float64) *ChainingMesh {
	return &ChainingMesh{cellSize: cellSize, inv: float32(1 / cellSize)}
}

// Rebuild loads new particle coordinates and re-bins them in place,
// reusing every retained buffer. Statistics counters restart from zero.
func (m *ChainingMesh) Rebuild(x, y, z []float32) {
	m.Load([3][]float32{x, y, z})
	m.Build()
}

// Build bins the loaded particles and counting-sorts the working arrays
// (and Orig) into cell order, z fastest. It must follow Load: the sort
// reads the loaded order.
func (m *ChainingMesh) Build() {
	n := len(m.X)
	if n == 0 {
		// One empty cell, so NumBlocks and starts need no special case.
		m.starts = append(m.starts[:0], 0, 0)
		m.dims = [3]int{1, 1, 1}
		return
	}
	x, y, z := m.X, m.Y, m.Z
	m.lo = [3]float32{x[0], y[0], z[0]}
	hi := m.lo
	for i := 0; i < n; i++ {
		m.lo[0] = min(m.lo[0], x[i])
		m.lo[1] = min(m.lo[1], y[i])
		m.lo[2] = min(m.lo[2], z[i])
		hi[0] = max(hi[0], x[i])
		hi[1] = max(hi[1], y[i])
		hi[2] = max(hi[2], z[i])
	}
	for d := 0; d < 3; d++ {
		ext := float64(hi[d]-m.lo[d]) + 1e-4
		m.dims[d] = max(int(math.Ceil(ext/m.cellSize))+1, 1)
	}
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	counts := par.Resize(m.starts, ncell+1)
	clear(counts)
	cellOf := par.Resize(m.cellOf, n)
	for i := 0; i < n; i++ {
		c := m.cellIndex(x[i], y[i], z[i])
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 0; c < ncell; c++ {
		counts[c+1] += counts[c]
	}
	m.starts = counts
	m.cellOf = cellOf
	sx := par.Resize(m.sx, n)
	sy := par.Resize(m.sy, n)
	sz := par.Resize(m.sz, n)
	cursor := par.Resize(m.cursor, ncell)
	m.cursor = cursor
	copy(cursor, counts[:ncell])
	for i := 0; i < n; i++ {
		c := cellOf[i]
		p := cursor[c]
		cursor[c]++
		sx[p], sy[p], sz[p] = x[i], y[i], z[i]
		m.Orig[p] = int32(i)
	}
	m.X, m.sx = sx, x
	m.Y, m.sy = sy, y
	m.Z, m.sz = sz, z
}

func (m *ChainingMesh) cellIndex(x, y, z float32) int32 {
	cx := clampCell(int((x-m.lo[0])*m.inv), m.dims[0])
	cy := clampCell(int((y-m.lo[1])*m.inv), m.dims[1])
	cz := clampCell(int((z-m.lo[2])*m.inv), m.dims[2])
	return int32((cx*m.dims[1]+cy)*m.dims[2] + cz)
}

func clampCell(c, n int) int {
	return min(max(c, 0), n-1)
}

// NumBlocks returns the number of cells.
func (m *ChainingMesh) NumBlocks() int { return m.dims[0] * m.dims[1] * m.dims[2] }

// Block returns cell c's particle range and its neighbour spans. Because
// the CSR layout orders cells with z fastest, each (dx,dy) column of up to
// three z-cells is one contiguous span of the sorted arrays, so the 27-cell
// stencil collapses to at most 9 spans — in (dx,dy,dz) cell order, and
// coalesced further when consecutive columns touch in the CSR layout.
func (m *ChainingMesh) Block(ws *Scratch, c int) (s, e int32) {
	s, e = m.starts[c], m.starts[c+1]
	if s == e {
		return
	}
	cz := c % m.dims[2]
	cy := (c / m.dims[2]) % m.dims[1]
	cx := c / (m.dims[1] * m.dims[2])
	zlo, zhi := max(cz-1, 0), min(cz+1, m.dims[2]-1)
	spans := ws.Spans[:0]
	for x := max(cx-1, 0); x <= min(cx+1, m.dims[0]-1); x++ {
		for y := max(cy-1, 0); y <= min(cy+1, m.dims[1]-1); y++ {
			base := (x*m.dims[1] + y) * m.dims[2]
			cs, ce := m.starts[base+zlo], m.starts[base+zhi+1]
			if cs == ce {
				continue
			}
			if k := len(spans); k > 0 && spans[k-1][1] == cs {
				spans[k-1][1] = ce
			} else {
				spans = append(spans, [2]int32{cs, ce})
			}
		}
	}
	ws.Spans = spans
	return
}

// ComputeForcesPoolRanges evaluates the short-range force on the pool: the
// driver's Run over the cells.
func (m *ChainingMesh) ComputeForcesPoolRanges(kern RangeKernel, pool *par.Pool) {
	m.Run(m, kern, pool)
}
