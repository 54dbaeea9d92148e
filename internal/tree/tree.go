package tree

import (
	"sync"
	"sync/atomic"

	"hacc/internal/par"
)

// LeafKernel evaluates the short-range force of every neighbor (nx,ny,nz)
// on every target particle (lx,ly,lz), accumulating into (ax,ay,az) and
// returning the number of pair interactions evaluated.
type LeafKernel func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64

// RangeLeafKernel is the copy-free kernel signature (PR 7): instead of a
// gathered neighbor list it receives the tree's full leaf-contiguous SoA
// coordinate arrays plus the leaf's neighbor set as ordered (start,end)
// spans over them. Satisfied by shortrange.Kernel.ApplyRanges.
type RangeLeafKernel func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64

// node is one RCB tree node; leaves have left == -1.
type node struct {
	lo, hi      [3]float32
	start, end  int32
	left, right int32
}

// Tree is a built RCB tree over a working copy of the particles. A Tree may
// be rebuilt in place over new coordinates with Rebuild, which retains every
// backing array (coordinates, accelerations, orig map, node pool, cached
// leaf list, swap buffer) so that sub-cycling allocates nothing after the
// first build — the persistent-solver-state design of the HACC architecture
// (Habib et al., arXiv:1410.2805).
type Tree struct {
	LeafSize   int
	X, Y, Z    []float32 // particle coordinates, leaf-contiguous after build
	AX, AY, AZ []float32
	orig       []int32 // original index of each working slot
	nodes      []node
	leaves     []int32 // leaf node indices, cached at build time
	swapBuf    []int32 // recorded swaps for the three-phase partition

	// Per-worker walk scratch and the shared leaf cursor, persistent
	// across force evaluations (untouched by Rebuild).
	walk []walkScratch
	next atomic.Int64

	// Stats for the bench harness (Fig. 5 / §III time-split claims).
	// Reset by Rebuild: they count work since the last (re)build.
	Interactions  atomic.Int64
	NodesVisited  atomic.Int64
	NeighborCount atomic.Int64 // summed neighbor-list lengths over leaves
	LeafCount     int
}

// New returns an empty tree with the given fat-leaf capacity; call Rebuild
// to populate it.
func New(leafSize int) *Tree {
	if leafSize < 1 {
		leafSize = 1
	}
	return &Tree{LeafSize: leafSize}
}

// Build copies the coordinates and constructs the tree. leafSize is the
// fat-leaf capacity (paper: up to hundreds before the walk/kernel crossover).
func Build(x, y, z []float32, leafSize int) *Tree {
	t := New(leafSize)
	t.Rebuild(x, y, z)
	return t
}

// Rebuild reconstructs the tree over new coordinates, reusing all retained
// storage. Statistics counters restart from zero.
func (t *Tree) Rebuild(x, y, z []float32) {
	n := len(x)
	t.X = append(t.X[:0], x...)
	t.Y = append(t.Y[:0], y...)
	t.Z = append(t.Z[:0], z...)
	t.AX = par.Resize(t.AX, n)
	t.AY = par.Resize(t.AY, n)
	t.AZ = par.Resize(t.AZ, n)
	t.orig = par.Resize(t.orig, n)
	for i := range t.orig {
		t.orig[i] = int32(i)
	}
	t.nodes = t.nodes[:0]
	t.leaves = t.leaves[:0]
	t.Interactions.Store(0)
	t.NodesVisited.Store(0)
	t.NeighborCount.Store(0)
	if n > 0 {
		t.build(0, int32(n))
	}
	t.LeafCount = len(t.leaves)
}

// build adds the subtree for particle range [start,end) and returns its
// node index.
func (t *Tree) build(start, end int32) int32 {
	var nd node
	nd.start, nd.end = start, end
	nd.lo = [3]float32{t.X[start], t.Y[start], t.Z[start]}
	nd.hi = nd.lo
	for i := start; i < end; i++ {
		nd.lo[0] = min32(nd.lo[0], t.X[i])
		nd.hi[0] = max32(nd.hi[0], t.X[i])
		nd.lo[1] = min32(nd.lo[1], t.Y[i])
		nd.hi[1] = max32(nd.hi[1], t.Y[i])
		nd.lo[2] = min32(nd.lo[2], t.Z[i])
		nd.hi[2] = max32(nd.hi[2], t.Z[i])
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, nd)
	if end-start <= int32(t.LeafSize) {
		t.nodes[idx].left, t.nodes[idx].right = -1, -1
		t.leaves = append(t.leaves, idx)
		return idx
	}
	// Split at the center-of-mass coordinate perpendicular to the longest
	// side (equal particle masses: the mean coordinate).
	dim := 0
	for d := 1; d < 3; d++ {
		if nd.hi[d]-nd.lo[d] > nd.hi[dim]-nd.lo[dim] {
			dim = d
		}
	}
	coord := t.axis(dim)
	var sum float64
	for i := start; i < end; i++ {
		sum += float64(coord[i])
	}
	pivot := float32(sum / float64(end-start))
	mid := t.partition(start, end, dim, pivot)
	if mid == start || mid == end {
		// Degenerate (all coordinates equal on this axis): median split by
		// index to guarantee progress.
		mid = (start + end) / 2
	}
	// Children are appended after this node; record their indices.
	l := t.build(start, mid)
	r := t.build(mid, end)
	t.nodes[idx].left, t.nodes[idx].right = l, r
	return idx
}

func (t *Tree) axis(d int) []float32 {
	switch d {
	case 0:
		return t.X
	case 1:
		return t.Y
	default:
		return t.Z
	}
}

// partition reorders [start,end) so particles with coord < pivot precede
// the rest, returning the boundary. Three-phase scheme from §III: the
// dividing coordinate is swept first, recording swaps; the recorded swaps
// are then replayed over the remaining arrays, which lets the hardware
// prefetcher stream each array independently.
func (t *Tree) partition(start, end int32, dim int, pivot float32) int32 {
	coord := t.axis(dim)
	t.swapBuf = t.swapBuf[:0]
	i, j := start, end-1
	for {
		for i <= j && coord[i] < pivot {
			i++
		}
		for i <= j && coord[j] >= pivot {
			j--
		}
		if i >= j {
			break
		}
		coord[i], coord[j] = coord[j], coord[i]
		t.swapBuf = append(t.swapBuf, i, j)
		i++
		j--
	}
	// Phase 2/3: replay swaps on the remaining arrays.
	for d := 0; d < 3; d++ {
		if d == dim {
			continue
		}
		arr := t.axis(d)
		for k := 0; k < len(t.swapBuf); k += 2 {
			a, b := t.swapBuf[k], t.swapBuf[k+1]
			arr[a], arr[b] = arr[b], arr[a]
		}
	}
	for k := 0; k < len(t.swapBuf); k += 2 {
		a, b := t.swapBuf[k], t.swapBuf[k+1]
		t.orig[a], t.orig[b] = t.orig[b], t.orig[a]
	}
	return i
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.LeafCount }

// Depth returns the maximum node depth (root = 1). Iterative with an
// explicit (node, depth) stack: degenerate particle distributions can make
// the RCB tree deep enough that a recursive traversal risks goroutine
// stack growth right in the middle of the force step.
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	type item struct {
		n int32
		d int32
	}
	stack := []item{{0, 1}}
	max := int32(0)
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[it.n]
		if nd.left < 0 {
			if it.d > max {
				max = it.d
			}
			continue
		}
		stack = append(stack, item{nd.left, it.d + 1}, item{nd.right, it.d + 1})
	}
	return int(max)
}

// walkScratch is one worker's neighbor-gather buffers, range list, and walk
// stack, persistent across force evaluations.
type walkScratch struct {
	nbrX, nbrY, nbrZ []float32
	ranges           [][2]int32
	stack            []int32
}

// ensureWalk guarantees at least k per-worker scratch slots.
func (t *Tree) ensureWalk(k int) {
	for len(t.walk) < k {
		t.walk = append(t.walk, walkScratch{})
	}
}

// prepForces zeroes the accumulators and the shared leaf cursor.
func (t *Tree) prepForces() {
	for i := range t.AX {
		t.AX[i], t.AY[i], t.AZ[i] = 0, 0, 0
	}
	t.next.Store(0)
}

// leafLoop pulls leaves from the shared cursor until none remain, using
// worker w's persistent scratch: the dynamically load-balanced inner loop
// of the force evaluation.
func (t *Tree) leafLoop(w int, kern LeafKernel, rc float32) {
	ws := &t.walk[w]
	nbrX, nbrY, nbrZ := ws.nbrX, ws.nbrY, ws.nbrZ
	stack := ws.stack
	var inter, visited, nbrSum int64
	for {
		li := t.next.Add(1) - 1
		if li >= int64(len(t.leaves)) {
			break
		}
		leaf := &t.nodes[t.leaves[li]]
		// Expanded search box.
		var lo, hi [3]float32
		for d := 0; d < 3; d++ {
			lo[d] = leaf.lo[d] - rc
			hi[d] = leaf.hi[d] + rc
		}
		nbrX = nbrX[:0]
		nbrY = nbrY[:0]
		nbrZ = nbrZ[:0]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := &t.nodes[ni]
			visited++
			if nd.lo[0] > hi[0] || nd.hi[0] < lo[0] ||
				nd.lo[1] > hi[1] || nd.hi[1] < lo[1] ||
				nd.lo[2] > hi[2] || nd.hi[2] < lo[2] {
				continue
			}
			if nd.left < 0 {
				nbrX = append(nbrX, t.X[nd.start:nd.end]...)
				nbrY = append(nbrY, t.Y[nd.start:nd.end]...)
				nbrZ = append(nbrZ, t.Z[nd.start:nd.end]...)
				continue
			}
			// Right below left so the left child pops first: leaves are
			// visited in ascending particle-index order, the same order
			// leafLoopRanges emits spans in — keeping the two walks
			// bitwise-comparable (TestRangeWalkMatchesCopyWalk).
			stack = append(stack, nd.right, nd.left)
		}
		nbrSum += int64(len(nbrX))
		s, e := leaf.start, leaf.end
		inter += kern(t.X[s:e], t.Y[s:e], t.Z[s:e],
			nbrX, nbrY, nbrZ,
			t.AX[s:e], t.AY[s:e], t.AZ[s:e])
	}
	ws.nbrX, ws.nbrY, ws.nbrZ = nbrX, nbrY, nbrZ
	ws.stack = stack
	t.Interactions.Add(inter)
	t.NodesVisited.Add(visited)
	t.NeighborCount.Add(nbrSum)
}

// leafLoopRanges is leafLoop without the gather: the walk names each leaf's
// neighbor set as ordered (start,end) spans over the tree's leaf-contiguous
// SoA arrays instead of copying O(neighbors) coordinates into scratch.
// Because leaves pop in ascending index order, spans from adjacent leaves
// coalesce (the common case: siblings pruned together), and a subtree whose
// box lies entirely inside the search box is emitted as one span without
// descending — its particle range [start,end) is contiguous by RCB
// construction, and the span order equals the copy walk's leaf-by-leaf
// concatenation order, so both short-cuts are invisible to the kernel.
// Results are bitwise independent of which worker runs a leaf because
// accumulation targets only that leaf's span.
func (t *Tree) leafLoopRanges(w int, kern RangeLeafKernel, rc float32) {
	ws := &t.walk[w]
	ranges := ws.ranges
	stack := ws.stack
	var inter, visited, nbrSum int64
	for {
		li := t.next.Add(1) - 1
		if li >= int64(len(t.leaves)) {
			break
		}
		leaf := &t.nodes[t.leaves[li]]
		// Expanded search box.
		var lo, hi [3]float32
		for d := 0; d < 3; d++ {
			lo[d] = leaf.lo[d] - rc
			hi[d] = leaf.hi[d] + rc
		}
		ranges = ranges[:0]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := &t.nodes[ni]
			visited++
			if nd.lo[0] > hi[0] || nd.hi[0] < lo[0] ||
				nd.lo[1] > hi[1] || nd.hi[1] < lo[1] ||
				nd.lo[2] > hi[2] || nd.hi[2] < lo[2] {
				continue
			}
			if nd.left < 0 ||
				(nd.lo[0] >= lo[0] && nd.hi[0] <= hi[0] &&
					nd.lo[1] >= lo[1] && nd.hi[1] <= hi[1] &&
					nd.lo[2] >= lo[2] && nd.hi[2] <= hi[2]) {
				// Leaf, or interior node fully inside the search box.
				if k := len(ranges); k > 0 && ranges[k-1][1] == nd.start {
					ranges[k-1][1] = nd.end
				} else {
					ranges = append(ranges, [2]int32{nd.start, nd.end})
				}
				nbrSum += int64(nd.end - nd.start)
				continue
			}
			stack = append(stack, nd.right, nd.left)
		}
		s, e := leaf.start, leaf.end
		inter += kern(t.X[s:e], t.Y[s:e], t.Z[s:e],
			t.X, t.Y, t.Z, ranges,
			t.AX[s:e], t.AY[s:e], t.AZ[s:e])
	}
	ws.ranges = ranges
	ws.stack = stack
	t.Interactions.Add(inter)
	t.NodesVisited.Add(visited)
	t.NeighborCount.Add(nbrSum)
}

// ComputeForces walks the tree once per leaf, gathers that leaf's shared
// interaction list into contiguous per-worker scratch, and invokes the
// kernel; leaves are processed by `threads` goroutines. Accelerations
// accumulate into AX/AY/AZ (zeroed first).
func (t *Tree) ComputeForces(kern LeafKernel, rcut float64, threads int) {
	t.prepForces()
	if len(t.nodes) == 0 {
		return
	}
	if threads < 1 {
		threads = 1
	}
	t.ensureWalk(threads)
	rc := float32(rcut)
	if threads == 1 {
		t.leafLoop(0, kern, rc)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t.leafLoop(w, kern, rc)
		}(w)
	}
	wg.Wait()
}

// ComputeForcesRanges is ComputeForces on the copy-free range walk: the
// kernel receives (start,end) spans over the tree's SoA arrays instead of a
// gathered neighbor copy. Production runs the same walk on the rank's pool
// (ComputeForcesPoolRanges); ComputeForces with a copy kernel remains as the
// equivalence oracle.
func (t *Tree) ComputeForcesRanges(kern RangeLeafKernel, rcut float64, threads int) {
	t.prepForces()
	if len(t.nodes) == 0 {
		return
	}
	if threads < 1 {
		threads = 1
	}
	t.ensureWalk(threads)
	rc := float32(rcut)
	if threads == 1 {
		t.leafLoopRanges(0, kern, rc)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t.leafLoopRanges(w, kern, rc)
		}(w)
	}
	wg.Wait()
}

// ComputeForcesPoolRanges is ComputeForcesRanges dispatched on a persistent
// worker pool: the production force walk and the zero-allocation
// sub-cycling configuration.
func (t *Tree) ComputeForcesPoolRanges(kern RangeLeafKernel, rcut float64, pool *par.Pool) {
	t.prepForces()
	if len(t.nodes) == 0 {
		return
	}
	t.ensureWalk(pool.Workers())
	rc := float32(rcut)
	pool.Run(0, func(w int) { t.leafLoopRanges(w, kern, rc) })
}

// AccelInto scatters the computed accelerations back to the caller's
// original particle order (adding into the provided arrays).
func (t *Tree) AccelInto(ax, ay, az []float32) {
	for i, o := range t.orig {
		ax[o] += t.AX[i]
		ay[o] += t.AY[i]
		az[o] += t.AZ[i]
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
