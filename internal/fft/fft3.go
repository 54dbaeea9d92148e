package fft

import (
	"fmt"
	"math"
)

// Plan3 performs serial 3-D complex transforms on an n0×n1×n2 array stored
// row-major (index = (i0·n1 + i1)·n2 + i2). Its one production caller is the
// short-range kernel fit's serial PM solver; tests use it as the serial
// oracle of the distributed transforms, which live in package pfft. The
// strided axes go through a plan-owned transpose tile, so unlike Plan a
// Plan3 is not safe for concurrent use.
//
// Every transform is one loop over 1-D lines, z rows first, then y lines,
// then x lines, each line independent of the others. Forward and Inverse
// transform every line; ForwardSparse and InverseBox transform only the
// lines a sparse input or a boxed output needs, which gives the same bits
// on the output they promise.
type Plan3 struct {
	n0, n1, n2 int
	p0, p1, p2 *Plan
	tile       []complex128 // n2 rows of the axis being transformed
	// zeroKeeping: the z and y plans map a +0 row to +0 bits, so a skipped
	// all-+0 line holds what transforming it would have stored.
	zeroKeeping bool
}

// Span is the periodic index window Lo, Lo+1, …, Lo+Len−1 (mod the axis
// length) along one axis of a Plan3. Lo may be any integer; Len runs from 0
// to the axis length.
type Span struct{ Lo, Len int }

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
	p.zeroKeeping = keepsZero(p.p1) && keepsZero(p.p2)
	return p
}

// keepsZero reports whether pl's forward transform maps an all-+0 row to
// +0 bits. Not every length does: a Bluestein cofactor can leave −0 parts.
func keepsZero(pl *Plan) bool {
	row := make([]complex128, pl.n)
	pl.Forward(row)
	for _, v := range row {
		if math.Float64bits(real(v))|math.Float64bits(imag(v)) != 0 {
			return false
		}
	}
	return true
}

// Len returns the total number of elements n0·n1·n2.
func (p *Plan3) Len() int { return p.n0 * p.n1 * p.n2 }

// Forward computes the in-place 3-D forward DFT.
func (p *Plan3) Forward(data []complex128) {
	all0, all1, all2 := Span{0, p.n0}, Span{0, p.n1}, Span{0, p.n2}
	p.apply(data, false, all0, all1, all2, all1)
}

// Inverse computes the in-place 3-D inverse DFT scaled by 1/(n0·n1·n2).
func (p *Plan3) Inverse(data []complex128) {
	all0, all1, all2 := Span{0, p.n0}, Span{0, p.n1}, Span{0, p.n2}
	p.apply(data, true, all0, all1, all2, all1)
}

// ForwardSparse computes Forward's result, bit for bit, for input that is
// +0 (both parts) outside the z rows (i0 ∈ s0, i1 ∈ s1): it transforms
// only those rows, then only the y lines of the planes i0 ∈ s0, then every
// x line. The skipped lines are all +0 and stay so, which is what
// transforming them stores when the plan keeps zeros; a plan that does not
// transforms every line.
func (p *Plan3) ForwardSparse(data []complex128, s0, s1 Span) {
	checkSpan(s0, p.n0)
	checkSpan(s1, p.n1)
	all0, all1, all2 := Span{0, p.n0}, Span{0, p.n1}, Span{0, p.n2}
	if !p.zeroKeeping {
		s0, s1 = all0, all1
	}
	p.apply(data, false, s0, s1, all2, all1)
}

// InverseBox computes Inverse's result, bit for bit, on the box
// w0×w1×w2: it transforms every z row, then only the y lines through
// i2 ∈ w2, then only the x lines through (i1 ∈ w1, i2 ∈ w2). Outside
// those x lines data is left partly transformed. Every x line is
// transformed whole, so w0 prunes nothing; it is checked and names the box.
func (p *Plan3) InverseBox(data []complex128, w0, w1, w2 Span) {
	checkSpan(w0, p.n0)
	checkSpan(w1, p.n1)
	checkSpan(w2, p.n2)
	p.apply(data, true, Span{0, p.n0}, Span{0, p.n1}, w2, w1)
}

func checkSpan(s Span, n int) {
	if s.Len < 0 || s.Len > n {
		panic(fmt.Sprintf("fft: span %+v on an axis of length %d", s, n))
	}
}

// apply transforms, in place, the z rows (i0 ∈ z0, i1 ∈ z1), then the y
// lines (i0 ∈ z0, i2 ∈ c2), then the x lines (i1 ∈ x1, i2 ∈ c2).
func (p *Plan3) apply(data []complex128, inverse bool, z0, z1, c2, x1 Span) {
	if len(data) != p.Len() {
		panic(fmt.Sprintf("fft: 3d data length %d != %d", len(data), p.Len()))
	}
	n0, n1, n2 := p.n0, p.n1, p.n2
	zr0, zr1, xr1 := z0.runs(n0), z1.runs(n1), x1.runs(n1)
	// Axis 2: contiguous rows, one batch per run of i1.
	for _, r0 := range zr0 {
		for i0 := r0[0]; i0 < r0[1]; i0++ {
			for _, r1 := range zr1 {
				if r1[0] == r1[1] {
					continue
				}
				p.p2.batch(data[(i0*n1+r1[0])*n2:(i0*n1+r1[1])*n2], r1[1]-r1[0], inverse)
			}
		}
	}
	// Axis 1: stride n2 within each i0 plane.
	for _, r0 := range zr0 {
		for i0 := r0[0]; i0 < r0[1]; i0++ {
			p.strided(p.p1, data[i0*n1*n2:(i0+1)*n1*n2], n2, inverse, c2)
		}
	}
	// Axis 0: stride n1·n2, the lines through each i1 at a time.
	for _, r1 := range xr1 {
		for i1 := r1[0]; i1 < r1[1]; i1++ {
			p.strided(p.p0, data[i1*n2:], n1*n2, inverse, c2)
		}
	}
}

// runs splits the span into at most two contiguous index runs [lo, hi) of
// an axis of length n; an unused run is empty.
func (s Span) runs(n int) [2][2]int {
	lo := ((s.Lo % n) + n) % n
	if lo+s.Len <= n {
		return [2][2]int{{lo, lo + s.Len}, {n, n}}
	}
	return [2][2]int{{lo, n}, {0, lo + s.Len - n}}
}

// strided transforms the lines data[c], data[c+stride], … (c ∈ cols, plan
// length entries each): transpose them into the tile as contiguous rows, one
// batch transform, transpose back.
func (p *Plan3) strided(pl *Plan, data []complex128, stride int, inverse bool, cols Span) {
	if cols.Len == 0 {
		return
	}
	n := pl.n
	runs := cols.runs(p.n2)
	tile := p.tile[:cols.Len*n]
	t := 0
	for _, r := range runs {
		for c := r[0]; c < r[1]; c++ {
			row := tile[t*n : (t+1)*n]
			for i := range row {
				row[i] = data[i*stride+c]
			}
			t++
		}
	}
	pl.batch(tile, cols.Len, inverse)
	for i := 0; i < n; i++ {
		line := data[i*stride : i*stride+p.n2]
		t := 0
		for _, r := range runs {
			for c := r[0]; c < r[1]; c++ {
				line[c] = tile[t*n+i]
				t++
			}
		}
	}
}
