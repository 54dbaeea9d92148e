package shortrange

import (
	"math"
	"sync"
	"sync/atomic"

	"hacc/internal/par"
)

// ChainingMesh is the direct particle-particle short-range backend (the
// P3M local solver HACC runs on accelerated systems like Roadrunner, §II).
// Particles are binned into cells of side ≥ r_cut; each cell's particles
// share one interaction list gathered from the 27 surrounding cells — the
// "no mediating tree" configuration with large Nd.
type ChainingMesh struct {
	X, Y, Z    []float32 // cell-sorted working copy
	AX, AY, AZ []float32
	orig       []int32
	dims       [3]int
	lo         [3]float32
	inv        float32 // 1/cellSize
	starts     []int32 // CSR cell offsets, len = ncells+1

	cellSize float64
	// Binning scratch, reused across rebuilds (zero-allocation sub-cycling).
	cellOf []int32
	cursor []int32
	// Per-worker gather scratch and the shared cell cursor, persistent
	// across force evaluations.
	walk []gatherScratch
	next atomic.Int64

	// Interactions counts pair evaluations (bench harness). Reset by
	// Rebuild: it counts work since the last (re)build.
	Interactions atomic.Int64
}

// NewMesh returns an empty chaining mesh with the given cell size (use the
// kernel's RCut or slightly larger); call Rebuild to populate it.
func NewMesh(cellSize float64) *ChainingMesh {
	return &ChainingMesh{cellSize: cellSize, inv: float32(1 / cellSize)}
}

// BuildMesh bins the particles into a chaining mesh with the given cell
// size.
func BuildMesh(x, y, z []float32, cellSize float64) *ChainingMesh {
	m := NewMesh(cellSize)
	m.Rebuild(x, y, z)
	return m
}

// Rebuild re-bins new particle coordinates in place, reusing the sorted
// working copy, the CSR offsets, and the binning scratch. Statistics
// counters restart from zero.
func (m *ChainingMesh) Rebuild(x, y, z []float32) {
	n := len(x)
	cellSize := m.cellSize
	m.Interactions.Store(0)
	if n == 0 {
		// One empty cell; starts needs ncell+1 entries so ComputeForces
		// can scan it without a special case.
		m.starts = append(m.starts[:0], 0, 0)
		m.dims = [3]int{1, 1, 1}
		m.X, m.Y, m.Z = m.X[:0], m.Y[:0], m.Z[:0]
		m.AX, m.AY, m.AZ = m.AX[:0], m.AY[:0], m.AZ[:0]
		m.orig = m.orig[:0]
		return
	}
	var hi [3]float32
	m.lo = [3]float32{x[0], y[0], z[0]}
	hi = m.lo
	for i := 0; i < n; i++ {
		m.lo[0] = min32(m.lo[0], x[i])
		m.lo[1] = min32(m.lo[1], y[i])
		m.lo[2] = min32(m.lo[2], z[i])
		hi[0] = max32(hi[0], x[i])
		hi[1] = max32(hi[1], y[i])
		hi[2] = max32(hi[2], z[i])
	}
	for d := 0; d < 3; d++ {
		ext := float64(hi[d]-m.lo[d]) + 1e-4
		m.dims[d] = int(math.Ceil(ext/cellSize)) + 1
		if m.dims[d] < 1 {
			m.dims[d] = 1
		}
	}
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	counts := par.Resize(m.starts, ncell+1)
	for c := range counts {
		counts[c] = 0
	}
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
	m.X = par.Resize(m.X, n)
	m.Y = par.Resize(m.Y, n)
	m.Z = par.Resize(m.Z, n)
	m.AX = par.Resize(m.AX, n)
	m.AY = par.Resize(m.AY, n)
	m.AZ = par.Resize(m.AZ, n)
	m.orig = par.Resize(m.orig, n)
	cursor := par.Resize(m.cursor, ncell)
	m.cursor = cursor
	copy(cursor, counts[:ncell])
	for i := 0; i < n; i++ {
		c := cellOf[i]
		p := cursor[c]
		cursor[c]++
		m.X[p], m.Y[p], m.Z[p] = x[i], y[i], z[i]
		m.orig[p] = int32(i)
	}
}

func (m *ChainingMesh) cellIndex(x, y, z float32) int32 {
	cx := clampCell(int((x-m.lo[0])*m.inv), m.dims[0])
	cy := clampCell(int((y-m.lo[1])*m.inv), m.dims[1])
	cz := clampCell(int((z-m.lo[2])*m.inv), m.dims[2])
	return int32((cx*m.dims[1]+cy)*m.dims[2] + cz)
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// gatherScratch is one worker's 27-cell neighbor-list buffers and range
// list, persistent across force evaluations.
type gatherScratch struct {
	nbrX, nbrY, nbrZ []float32
	ranges           [][2]int32
}

func (m *ChainingMesh) ensureWalk(k int) {
	for len(m.walk) < k {
		m.walk = append(m.walk, gatherScratch{})
	}
}

func (m *ChainingMesh) prepForces() {
	for i := range m.AX {
		m.AX[i], m.AY[i], m.AZ[i] = 0, 0, 0
	}
	m.next.Store(0)
}

// cellLoop pulls cells from the shared cursor until none remain, using
// worker w's persistent scratch.
func (m *ChainingMesh) cellLoop(w int, kern func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64) {
	ws := &m.walk[w]
	nbrX, nbrY, nbrZ := ws.nbrX, ws.nbrY, ws.nbrZ
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	var inter int64
	for {
		c := int(m.next.Add(1) - 1)
		if c >= ncell {
			break
		}
		s, e := m.starts[c], m.starts[c+1]
		if s == e {
			continue
		}
		cz := c % m.dims[2]
		cy := (c / m.dims[2]) % m.dims[1]
		cx := c / (m.dims[1] * m.dims[2])
		nbrX = nbrX[:0]
		nbrY = nbrY[:0]
		nbrZ = nbrZ[:0]
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= m.dims[0] {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := cy + dy
				if y < 0 || y >= m.dims[1] {
					continue
				}
				for dz := -1; dz <= 1; dz++ {
					z := cz + dz
					if z < 0 || z >= m.dims[2] {
						continue
					}
					nc := (x*m.dims[1]+y)*m.dims[2] + z
					ns, ne := m.starts[nc], m.starts[nc+1]
					nbrX = append(nbrX, m.X[ns:ne]...)
					nbrY = append(nbrY, m.Y[ns:ne]...)
					nbrZ = append(nbrZ, m.Z[ns:ne]...)
				}
			}
		}
		inter += kern(m.X[s:e], m.Y[s:e], m.Z[s:e],
			nbrX, nbrY, nbrZ,
			m.AX[s:e], m.AY[s:e], m.AZ[s:e])
	}
	ws.nbrX, ws.nbrY, ws.nbrZ = nbrX, nbrY, nbrZ
	m.Interactions.Add(inter)
}

// cellLoopRanges is cellLoop without the gather: because the CSR layout
// orders cells with z fastest, each (dx,dy) column of up to three z-cells
// is one contiguous span of the sorted arrays, so the 27-cell neighbor
// stencil collapses to at most 9 (start,end) spans — emitted in the same
// (dx,dy,dz) order the copy path concatenates cells in, and coalesced
// further when consecutive columns happen to touch in the CSR layout.
func (m *ChainingMesh) cellLoopRanges(w int, kern RangeKernel) {
	ws := &m.walk[w]
	ranges := ws.ranges
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	var inter int64
	for {
		c := int(m.next.Add(1) - 1)
		if c >= ncell {
			break
		}
		s, e := m.starts[c], m.starts[c+1]
		if s == e {
			continue
		}
		cz := c % m.dims[2]
		cy := (c / m.dims[2]) % m.dims[1]
		cx := c / (m.dims[1] * m.dims[2])
		zlo := cz - 1
		if zlo < 0 {
			zlo = 0
		}
		zhi := cz + 1
		if zhi >= m.dims[2] {
			zhi = m.dims[2] - 1
		}
		ranges = ranges[:0]
		for dx := -1; dx <= 1; dx++ {
			x := cx + dx
			if x < 0 || x >= m.dims[0] {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := cy + dy
				if y < 0 || y >= m.dims[1] {
					continue
				}
				base := (x*m.dims[1] + y) * m.dims[2]
				cs, ce := m.starts[base+zlo], m.starts[base+zhi+1]
				if cs == ce {
					continue
				}
				if k := len(ranges); k > 0 && ranges[k-1][1] == cs {
					ranges[k-1][1] = ce
				} else {
					ranges = append(ranges, [2]int32{cs, ce})
				}
			}
		}
		inter += kern(m.X[s:e], m.Y[s:e], m.Z[s:e],
			m.X, m.Y, m.Z, ranges,
			m.AX[s:e], m.AY[s:e], m.AZ[s:e])
	}
	ws.ranges = ranges
	m.Interactions.Add(inter)
}

// ComputeForces evaluates the short-range force cell by cell with `threads`
// goroutines; each cell's particles share the 27-cell interaction list.
func (m *ChainingMesh) ComputeForces(kern func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64, threads int) {
	m.prepForces()
	if threads < 1 {
		threads = 1
	}
	m.ensureWalk(threads)
	if threads == 1 {
		m.cellLoop(0, kern)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.cellLoop(w, kern)
		}(w)
	}
	wg.Wait()
}

// ComputeForcesRanges is ComputeForces on the copy-free range walk (see
// cellLoopRanges). The production force path; the copy path remains as the
// equivalence oracle.
func (m *ChainingMesh) ComputeForcesRanges(kern RangeKernel, threads int) {
	m.prepForces()
	if threads < 1 {
		threads = 1
	}
	m.ensureWalk(threads)
	if threads == 1 {
		m.cellLoopRanges(0, kern)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.cellLoopRanges(w, kern)
		}(w)
	}
	wg.Wait()
}

// ComputeForcesPoolRanges is ComputeForcesRanges dispatched on a persistent
// worker pool: the zero-allocation sub-cycling configuration.
func (m *ChainingMesh) ComputeForcesPoolRanges(kern RangeKernel, pool *par.Pool) {
	m.prepForces()
	m.ensureWalk(pool.Workers())
	pool.Run(0, func(w int) { m.cellLoopRanges(w, kern) })
}

// AccelInto scatters accelerations back to the caller's particle order.
func (m *ChainingMesh) AccelInto(ax, ay, az []float32) {
	for i, o := range m.orig {
		ax[o] += m.AX[i]
		ay[o] += m.AY[i]
		az[o] += m.AZ[i]
	}
}

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
