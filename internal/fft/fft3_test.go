package fft

import (
	"math"
	"math/rand"
	"testing"
)

// sparseShapes cover cubic and non-cubic grids over radix 2/4 (8, 16),
// radix 3 and 5 (9, 15, 10, 6), generic butterflies (7, 11) and the
// Bluestein lengths 37 and 41, on every axis position.
var sparseShapes = [][3]int{
	{8, 8, 8}, {6, 10, 15}, {16, 9, 12}, {7, 11, 5}, {1, 4, 3},
	{37, 4, 6}, {5, 37, 8}, {6, 8, 41}, {41, 37, 5},
}

// shapeSpans returns spans along an axis of length n: the whole axis, one
// cell, a pair wrapping the upper edge, one starting below zero, an empty
// one and random ones.
func shapeSpans(n int, rng *rand.Rand) []Span {
	out := []Span{{0, n}, {n / 2, 1}, {n - 1, min(2, n)}, {-1, min(3, n)}, {n / 3, 0}}
	for range 3 {
		out = append(out, Span{rng.Intn(3*n) - n, rng.Intn(n + 1)})
	}
	return out
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func inSpan(s Span, n, i int) bool {
	return ((i-s.Lo)%n+n)%n < s.Len
}

// TestForwardSparseMatchesForward pins ForwardSparse bit for bit against
// Forward on the whole grid, for input that is random on the rows
// s0×s1 and +0 elsewhere.
func TestForwardSparseMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range sparseShapes {
		p := NewPlan3(n[0], n[1], n[2])
		for _, s0 := range shapeSpans(n[0], rng) {
			for _, s1 := range shapeSpans(n[1], rng) {
				in := make([]complex128, p.Len())
				for i := range in {
					i0, i1 := i/(n[1]*n[2]), i/n[2]%n[1]
					if inSpan(s0, n[0], i0) && inSpan(s1, n[1], i1) {
						in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
				}
				want := append([]complex128(nil), in...)
				p.Forward(want)
				got := append([]complex128(nil), in...)
				p.ForwardSparse(got, s0, s1)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%v s0=%+v s1=%+v: [%d] = %v, Forward %v", n, s0, s1, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestInverseBoxMatchesInverse pins InverseBox bit for bit against Inverse
// inside the box, for random spectra and boxes that wrap the periodic edge.
func TestInverseBoxMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range sparseShapes {
		p := NewPlan3(n[0], n[1], n[2])
		in := randomVec(p.Len(), rng)
		want := append([]complex128(nil), in...)
		p.Inverse(want)
		got := make([]complex128, p.Len())
		for _, w0 := range shapeSpans(n[0], rng)[:4] {
			for _, w1 := range shapeSpans(n[1], rng) {
				for _, w2 := range shapeSpans(n[2], rng) {
					copy(got, in)
					p.InverseBox(got, w0, w1, w2)
					for i := range want {
						i0, i1, i2 := i/(n[1]*n[2]), i/n[2]%n[1], i%n[2]
						if !inSpan(w0, n[0], i0) || !inSpan(w1, n[1], i1) || !inSpan(w2, n[2], i2) {
							continue
						}
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%v box %+v %+v %+v: [%d] = %v, Inverse %v", n, w0, w1, w2, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestZeroRowStaysPositiveZero checks that every length 1–128 without a
// Bluestein cofactor transforms a +0 row to +0 bits, the property that lets
// ForwardSparse skip all-+0 lines on those lengths.
func TestZeroRowStaysPositiveZero(t *testing.T) {
	for n := 1; n <= 128; n++ {
		p := NewPlan(n)
		if p.blue != nil {
			continue
		}
		if !keepsZero(p) {
			t.Errorf("n=%d: a +0 row does not transform to +0 bits", n)
		}
	}
}

// TestPlan3SpanPanics checks that a span longer than its axis, or of
// negative length, is refused.
func TestPlan3SpanPanics(t *testing.T) {
	p := NewPlan3(4, 5, 6)
	data := make([]complex128, p.Len())
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"sparse s1 too long", func() { p.ForwardSparse(data, Span{0, 4}, Span{0, 6}) }},
		{"box w0 negative", func() { p.InverseBox(data, Span{0, -1}, Span{0, 5}, Span{0, 6}) }},
		{"box w2 too long", func() { p.InverseBox(data, Span{0, 4}, Span{0, 5}, Span{2, 7}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.call()
		})
	}
}
