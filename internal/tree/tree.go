package tree

import (
	"hacc/internal/par"
	"hacc/internal/shortrange"
)

// node is one RCB tree node; leaves have left == -1.
type node struct {
	lo, hi      [3]float32
	start, end  int32
	left, right int32
}

// Tree is a rank-local RCB tree over the particles its embedded force
// driver holds. Build partitions the driver's working arrays in place so
// that every subtree is a contiguous range; as a shortrange.Blocks index
// the leaves are the blocks. Every backing array (coordinates,
// accelerations, Orig, node pool, leaf list, swap buffer, walk scratch) is
// retained across rebuilds, so sub-cycling allocates nothing after the
// first build — the persistent-solver-state design of the HACC
// architecture (Habib et al., arXiv:1410.2805).
type Tree struct {
	shortrange.Pairs

	LeafSize int
	// RCut is the search radius the leaf walk expands each leaf box by.
	RCut float64

	nodes   []node
	leaves  []int32 // leaf node indices, cached at build time
	swapBuf []int32 // recorded swaps for the three-phase partition
}

// New returns an empty tree with the given fat-leaf capacity (paper: up to
// hundreds before the walk/kernel crossover); call Rebuild, or Load and
// Build, to populate it.
func New(leafSize int) *Tree {
	return &Tree{LeafSize: max(leafSize, 1)}
}

// Rebuild loads new coordinates and reconstructs the tree over them,
// reusing all retained storage. Statistics counters restart from zero.
func (t *Tree) Rebuild(x, y, z []float32) {
	t.Load([3][]float32{x, y, z})
	t.Build()
}

// Build constructs the tree over the loaded particles, permuting the
// working arrays and Orig into leaf-contiguous order.
func (t *Tree) Build() {
	t.nodes = t.nodes[:0]
	t.leaves = t.leaves[:0]
	if n := len(t.X); n > 0 {
		t.build(0, int32(n))
	}
}

// build adds the subtree for particle range [start,end) and returns its
// node index.
func (t *Tree) build(start, end int32) int32 {
	var nd node
	nd.start, nd.end = start, end
	nd.lo = [3]float32{t.X[start], t.Y[start], t.Z[start]}
	nd.hi = nd.lo
	for i := start; i < end; i++ {
		nd.lo[0] = min(nd.lo[0], t.X[i])
		nd.hi[0] = max(nd.hi[0], t.X[i])
		nd.lo[1] = min(nd.lo[1], t.Y[i])
		nd.hi[1] = max(nd.hi[1], t.Y[i])
		nd.lo[2] = min(nd.lo[2], t.Z[i])
		nd.hi[2] = max(nd.hi[2], t.Z[i])
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
		t.Orig[a], t.Orig[b] = t.Orig[b], t.Orig[a]
	}
	return i
}

// NumBlocks returns the number of leaves.
func (t *Tree) NumBlocks() int { return len(t.leaves) }

// Block walks the tree for leaf li and names its neighbour set as ordered
// spans over the leaf-contiguous working arrays. Leaves pop in ascending
// index order, so spans from adjacent leaves coalesce (the common case:
// siblings pruned together), and a subtree whose box lies entirely inside
// the search box is emitted as one span without descending: its particle
// range is contiguous by RCB construction. The span order is therefore the
// leaf-by-leaf concatenation order of a gathering walk, and both short-cuts
// are invisible to the kernel (TestRangeWalkMatchesCopyWalk).
func (t *Tree) Block(ws *shortrange.Scratch, li int) (s, e int32) {
	leaf := &t.nodes[t.leaves[li]]
	// Expanded search box.
	rc := float32(t.RCut)
	var lo, hi [3]float32
	for d := 0; d < 3; d++ {
		lo[d] = leaf.lo[d] - rc
		hi[d] = leaf.hi[d] + rc
	}
	spans := ws.Spans[:0]
	stack := append(ws.Stack[:0], 0)
	var visited int64
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
			if k := len(spans); k > 0 && spans[k-1][1] == nd.start {
				spans[k-1][1] = nd.end
			} else {
				spans = append(spans, [2]int32{nd.start, nd.end})
			}
			continue
		}
		// Right below left so the left child pops first.
		stack = append(stack, nd.right, nd.left)
	}
	ws.Spans, ws.Stack = spans, stack
	ws.Nodes += visited
	return leaf.start, leaf.end
}

// ComputeForcesPoolRanges evaluates the short-range force on the pool: the
// driver's Run over the leaves with search radius rcut.
func (t *Tree) ComputeForcesPoolRanges(kern shortrange.RangeKernel, rcut float64, pool *par.Pool) {
	t.RCut = rcut
	t.Run(t, kern, pool)
}

// ComputeForcesRanges is ComputeForcesPoolRanges on a new pool of
// `threads` workers (one runs on the calling goroutine).
func (t *Tree) ComputeForcesRanges(kern shortrange.RangeKernel, rcut float64, threads int) {
	t.ComputeForcesPoolRanges(kern, rcut, par.NewPool(threads))
}
