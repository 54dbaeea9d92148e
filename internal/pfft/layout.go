package pfft

import "fmt"

// Box is a half-open axis-aligned box [Lo, Hi) in 3-D grid coordinates.
type Box struct {
	Lo, Hi [3]int
}

// Size returns the extent along dimension d.
func (b Box) Size(d int) int { return b.Hi[d] - b.Lo[d] }

// Count returns the number of grid points inside the box.
func (b Box) Count() int {
	n := 1
	for d := 0; d < 3; d++ {
		if b.Hi[d] <= b.Lo[d] {
			return 0
		}
		n *= b.Size(d)
	}
	return n
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.Count() == 0 }

// Contains reports whether the point (x,y,z) lies inside the box.
func (b Box) Contains(x, y, z int) bool {
	return x >= b.Lo[0] && x < b.Hi[0] &&
		y >= b.Lo[1] && y < b.Hi[1] &&
		z >= b.Lo[2] && z < b.Hi[2]
}

// shift returns the box displaced by off.
func (b Box) shift(off [3]int) Box {
	for d := 0; d < 3; d++ {
		b.Lo[d] += off[d]
		b.Hi[d] += off[d]
	}
	return b
}

// Intersect returns the overlap of two boxes (possibly empty).
func Intersect(a, b Box) Box {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(a.Lo[d], b.Lo[d])
		r.Hi[d] = min(a.Hi[d], b.Hi[d])
		if r.Hi[d] < r.Lo[d] {
			r.Hi[d] = r.Lo[d]
		}
	}
	return r
}

// Layout describes how a global N[0]×N[1]×N[2] array is partitioned into
// one rectangular box per rank, and in what axis order each rank stores its
// local data. Order is a permutation of {0,1,2} from slowest to fastest
// varying axis; e.g. Order={2,1,0} stores x fastest (contiguous).
//
// Pad is the width of a ghost halo around every rank's storage: a rank
// stores its box grown by Pad on each side, in the same order, and only
// the box itself is partitioned data. A padded block layout indexes a
// grid.Field's storage directly (Decomp.Layout().Padded(f.Ghost)), so a
// redistribution reads or writes a field's interior in place. Its Halo
// makes the halo data too.
type Layout struct {
	N     [3]int
	Boxes []Box
	Order [3]int
	Pad   int

	halo bool // the whole padded storage is data (Halo)
}

// Box returns the box owned by the given rank.
func (l *Layout) Box(rank int) Box { return l.Boxes[rank] }

// Padded returns the layout with the given ghost width around every rank's
// storage; the boxes are shared with l.
func (l *Layout) Padded(pad int) *Layout {
	p := *l
	p.Pad = pad
	return &p
}

// Halo returns the padded layout whose halo is data too: the storage slot
// at global coordinates g, anywhere in a rank's box grown by Pad, holds the
// canonical point g mod N. A point may so be stored by several ranks, and
// several times by one. A halo layout can only be a redistribution's
// destination; Pad must not exceed N.
func (l *Layout) Halo() *Layout {
	for d := 0; d < 3; d++ {
		if l.Pad > l.N[d] {
			panic(fmt.Sprintf("pfft: halo width %d exceeds grid %v", l.Pad, l.N))
		}
	}
	h := *l
	h.halo = true
	return &h
}

// dataBox returns the points the given rank's storage holds: its box, grown
// by Pad under a halo layout.
func (l *Layout) dataBox(rank int) Box {
	b := l.Boxes[rank]
	if l.halo {
		for d := 0; d < 3; d++ {
			b.Lo[d] -= l.Pad
			b.Hi[d] += l.Pad
		}
	}
	return b
}

// StorageLen returns the length of the given rank's local storage: its box
// count, or the padded box's when Pad > 0.
func (l *Layout) StorageLen(rank int) int {
	b := l.Boxes[rank]
	if l.Pad == 0 {
		return b.Count()
	}
	return l.extent(b, 0) * l.extent(b, 1) * l.extent(b, 2)
}

// extent returns the stored extent of box b along axis d.
func (l *Layout) extent(b Box, d int) int { return b.Size(d) + 2*l.Pad }

// LocalIndex converts global coordinates to the local storage index within
// the given rank's box.
func (l *Layout) LocalIndex(rank int, g [3]int) int {
	b := l.Boxes[rank]
	o := l.Order
	c0 := g[o[0]] - b.Lo[o[0]] + l.Pad
	c1 := g[o[1]] - b.Lo[o[1]] + l.Pad
	c2 := g[o[2]] - b.Lo[o[2]] + l.Pad
	return (c0*l.extent(b, o[1])+c1)*l.extent(b, o[2]) + c2
}

// axisStride returns the distance in the given rank's local storage between
// neighbouring points along axis.
func (l *Layout) axisStride(rank, axis int) int {
	b, o := l.Boxes[rank], l.Order
	switch axis {
	case o[2]:
		return 1
	case o[1]:
		return l.extent(b, o[2])
	default:
		return l.extent(b, o[1]) * l.extent(b, o[2])
	}
}

// chunk returns the [lo,hi) range of the i-th of p near-equal chunks of n.
func chunk(i, p, n int) (int, int) { return i * n / p, (i + 1) * n / p }

// Block3D builds the PM-style 3-D block layout over a dims[0]×dims[1]×dims[2]
// process grid (row-major rank order, z fastest in storage).
func Block3D(n [3]int, dims [3]int) *Layout {
	p := dims[0] * dims[1] * dims[2]
	l := &Layout{N: n, Order: [3]int{0, 1, 2}}
	l.Boxes = make([]Box, p)
	for r := 0; r < p; r++ {
		cz := r % dims[2]
		cy := (r / dims[2]) % dims[1]
		cx := r / (dims[1] * dims[2])
		var b Box
		b.Lo[0], b.Hi[0] = chunk(cx, dims[0], n[0])
		b.Lo[1], b.Hi[1] = chunk(cy, dims[1], n[1])
		b.Lo[2], b.Hi[2] = chunk(cz, dims[2], n[2])
		l.Boxes[r] = b
	}
	return l
}

// pencilLayout builds a layout with the full extent along axis `full` and
// the other two axes split over a p1×p2 grid; ranks are ordered so that
// rank = c1*p2 + c2. The storage order puts axis `full` fastest.
func pencilLayout(n [3]int, full int, p1, p2 int) *Layout {
	// The two split axes, in ascending order.
	var s1, s2 int
	switch full {
	case 0:
		s1, s2 = 1, 2
	case 1:
		s1, s2 = 0, 2
	default:
		s1, s2 = 0, 1
	}
	l := &Layout{N: n, Order: [3]int{s1, s2, full}}
	l.Boxes = make([]Box, p1*p2)
	for c1 := 0; c1 < p1; c1++ {
		for c2 := 0; c2 < p2; c2++ {
			var b Box
			b.Lo[full], b.Hi[full] = 0, n[full]
			b.Lo[s1], b.Hi[s1] = chunk(c1, p1, n[s1])
			b.Lo[s2], b.Hi[s2] = chunk(c2, p2, n[s2])
			l.Boxes[c1*p2+c2] = b
		}
	}
	return l
}

// PencilX returns the pencil layout with full x-extent, y split over p1 and
// z split over p2.
func PencilX(n [3]int, p1, p2 int) *Layout { return pencilLayout(n, 0, p1, p2) }

// PencilY returns the pencil layout with full y-extent, x split over p1 and
// z split over p2.
func PencilY(n [3]int, p1, p2 int) *Layout { return pencilLayout(n, 1, p1, p2) }

// PencilZ returns the pencil layout with full z-extent, x split over p1 and
// y split over p2.
func PencilZ(n [3]int, p1, p2 int) *Layout { return pencilLayout(n, 2, p1, p2) }

// forEach visits every point of box b in the storage order `order`, calling
// fn with the global coordinates and a running counter.
func forEach(b Box, order [3]int, fn func(g [3]int, k int)) {
	var g [3]int
	k := 0
	o0, o1, o2 := order[0], order[1], order[2]
	for a := b.Lo[o0]; a < b.Hi[o0]; a++ {
		g[o0] = a
		for bb := b.Lo[o1]; bb < b.Hi[o1]; bb++ {
			g[o1] = bb
			for cc := b.Lo[o2]; cc < b.Hi[o2]; cc++ {
				g[o2] = cc
				fn(g, k)
				k++
			}
		}
	}
}
