package fft

import "fmt"

// Plan3 performs serial 3-D complex transforms on an n0×n1×n2 array stored
// row-major (index = (i0·n1 + i1)·n2 + i2). It is used by tests and by
// single-rank runs; distributed transforms live in package pfft. The strided
// axes go through a plan-owned transpose tile, so unlike Plan a Plan3 is not
// safe for concurrent use.
type Plan3 struct {
	n0, n1, n2 int
	p0, p1, p2 *Plan
	tile       []complex128 // n2 rows of the axis being transformed
}

// NewPlan3 creates a 3-D plan. Dimensions may differ and need not be powers
// of two.
func NewPlan3(n0, n1, n2 int) *Plan3 {
	p := &Plan3{n0: n0, n1: n1, n2: n2}
	p.p2 = NewPlan(n2)
	if n1 == n2 {
		p.p1 = p.p2
	} else {
		p.p1 = NewPlan(n1)
	}
	switch {
	case n0 == n2:
		p.p0 = p.p2
	case n0 == n1:
		p.p0 = p.p1
	default:
		p.p0 = NewPlan(n0)
	}
	p.tile = make([]complex128, n2*max(n0, n1))
	return p
}

// Len returns the total number of elements n0·n1·n2.
func (p *Plan3) Len() int { return p.n0 * p.n1 * p.n2 }

// Forward computes the in-place 3-D forward DFT.
func (p *Plan3) Forward(data []complex128) { p.apply(data, false) }

// Inverse computes the in-place 3-D inverse DFT scaled by 1/(n0·n1·n2).
func (p *Plan3) Inverse(data []complex128) { p.apply(data, true) }

func (p *Plan3) apply(data []complex128, inverse bool) {
	if len(data) != p.Len() {
		panic(fmt.Sprintf("fft: 3d data length %d != %d", len(data), p.Len()))
	}
	n0, n1, n2 := p.n0, p.n1, p.n2
	// Axis 2: contiguous rows.
	p.p2.batch(data, n0*n1, inverse)
	// Axis 1: stride n2 within each i0 plane.
	for i0 := 0; i0 < n0; i0++ {
		p.strided(p.p1, data[i0*n1*n2:(i0+1)*n1*n2], n2, inverse)
	}
	// Axis 0: stride n1·n2, the n2 lines through each i1 at a time.
	for i1 := 0; i1 < n1; i1++ {
		p.strided(p.p0, data[i1*n2:], n1*n2, inverse)
	}
}

// strided transforms the n2 lines data[c], data[c+stride], … (c < n2, plan
// length entries each): transpose them into the tile as contiguous rows, one
// batch transform, transpose back.
func (p *Plan3) strided(pl *Plan, data []complex128, stride int, inverse bool) {
	n, n2 := pl.n, p.n2
	tile := p.tile[:n2*n]
	for c := 0; c < n2; c++ {
		row := tile[c*n : (c+1)*n]
		for i := range row {
			row[i] = data[i*stride+c]
		}
	}
	pl.batch(tile, n2, inverse)
	for i := 0; i < n; i++ {
		line := data[i*stride : i*stride+n2]
		for c := range line {
			line[c] = tile[c*n+i]
		}
	}
}
