package tree

import "hacc/internal/shortrange"

// leafKernel is the copy-list kernel signature: a leaf's neighbours arrive
// gathered into one contiguous list nx/ny/nz.
type leafKernel func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64

// buildTree loads the coordinates into a new tree and builds it.
func buildTree(x, y, z []float32, leafSize int) *Tree {
	t := New(leafSize)
	t.Rebuild(x, y, z)
	return t
}

// copyAdapter turns a copy-list kernel into a shortrange.RangeKernel by
// gathering the spans into a contiguous list, in span order. Through it the
// driver's range walk must reproduce the gathering walk bitwise: the two
// walks then present identical neighbour sets in identical order.
func copyAdapter(kern leafKernel) shortrange.RangeKernel {
	return func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
		var nx, ny, nz []float32
		for _, r := range ranges {
			nx = append(nx, px[r[0]:r[1]]...)
			ny = append(ny, py[r[0]:r[1]]...)
			nz = append(nz, pz[r[0]:r[1]]...)
		}
		return kern(lx, ly, lz, nx, ny, nz, ax, ay, az)
	}
}

// copyForces is the gathering walk, the oracle for Block: leaf by leaf, in
// order, it descends the tree without subsumption, copies every leaf that
// overlaps the expanded search box into one neighbour list and runs kern
// on it. Accelerations overwrite AX/AY/AZ; it returns the summed list
// lengths (the driver's NeighborCount).
func copyForces(t *Tree, kern leafKernel, rcut float64) (neighbors int64) {
	clear(t.AX)
	clear(t.AY)
	clear(t.AZ)
	rc := float32(rcut)
	var nx, ny, nz []float32
	var stack []int32
	for _, li := range t.leaves {
		leaf := &t.nodes[li]
		var lo, hi [3]float32
		for d := 0; d < 3; d++ {
			lo[d] = leaf.lo[d] - rc
			hi[d] = leaf.hi[d] + rc
		}
		nx, ny, nz = nx[:0], ny[:0], nz[:0]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			nd := &t.nodes[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if nd.lo[0] > hi[0] || nd.hi[0] < lo[0] ||
				nd.lo[1] > hi[1] || nd.hi[1] < lo[1] ||
				nd.lo[2] > hi[2] || nd.hi[2] < lo[2] {
				continue
			}
			if nd.left < 0 {
				nx = append(nx, t.X[nd.start:nd.end]...)
				ny = append(ny, t.Y[nd.start:nd.end]...)
				nz = append(nz, t.Z[nd.start:nd.end]...)
				continue
			}
			stack = append(stack, nd.right, nd.left)
		}
		neighbors += int64(len(nx))
		s, e := leaf.start, leaf.end
		kern(t.X[s:e], t.Y[s:e], t.Z[s:e], nx, ny, nz, t.AX[s:e], t.AY[s:e], t.AZ[s:e])
	}
	return
}

// accelInto scatters the driver's accelerations back to the loaded
// particle order, adding into ax/ay/az.
func accelInto(p *shortrange.Pairs, ax, ay, az []float32) {
	for i, o := range p.Orig {
		ax[o] += p.AX[i]
		ay[o] += p.AY[i]
		az[o] += p.AZ[i]
	}
}

// depth returns the maximum node depth (root = 1), iteratively with an
// explicit (node, depth) stack so that degenerate deep trees cannot
// overflow the goroutine stack.
func depth(t *Tree) int {
	if len(t.nodes) == 0 {
		return 0
	}
	type item struct{ n, d int32 }
	stack := []item{{0, 1}}
	deepest := int32(0)
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[it.n]
		if nd.left < 0 {
			deepest = max(deepest, it.d)
			continue
		}
		stack = append(stack, item{nd.left, it.d + 1}, item{nd.right, it.d + 1})
	}
	return int(deepest)
}
