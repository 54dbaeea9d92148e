package fft

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hacc/internal/race"
)

// The stage-table plan promises the recursive kernel's results bit for bit
// (the seed-42 goldens of the whole simulation depend on it). On amd64 the
// comparison is on math.Float64bits; elsewhere another compiler back end may
// fuse multiply-adds differently in the two code shapes, so it relaxes to a
// relative 1e-12.

func sameFloat(got, want, scale float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-12*scale
}

func checkComplex(t testing.TB, what string, got, want []complex128) {
	t.Helper()
	scale := math.SmallestNonzeroFloat64
	for _, v := range want {
		scale = math.Max(scale, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	for i := range want {
		if !sameFloat(real(got[i]), real(want[i]), scale) || !sameFloat(imag(got[i]), imag(want[i]), scale) {
			t.Fatalf("%s: [%d] = %v (%#x, %#x), oracle %v (%#x, %#x)", what, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

func checkReal(t testing.TB, what string, got, want []float64) {
	t.Helper()
	scale := math.SmallestNonzeroFloat64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if !sameFloat(got[i], want[i], scale) {
			t.Fatalf("%s: [%d] = %g (%#x), oracle %g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// bitInputs returns the input classes of TestPlanMatchesReference as
// complex rows of the given length.
func bitInputs(length int, seed int64) map[string][]complex128 {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	in := map[string][]complex128{
		"random":    randomVec(length, rng),
		"zero":      make([]complex128, length),
		"neg-zero":  make([]complex128, length),
		"real-only": make([]complex128, length),
		"denormal":  make([]complex128, length),
	}
	for i := 0; i < length; i++ {
		// Signed zeros with a few non-zeros in between, as the zero-padded
		// Bluestein and r2c rows have.
		re, im := negZero, 0.0
		if i%3 == 0 {
			re, im = 0, negZero
		}
		if i%7 == 0 {
			re = rng.NormFloat64()
		}
		in["neg-zero"][i] = complex(re, im)
		in["real-only"][i] = complex(rng.NormFloat64(), 0)
		in["denormal"][i] = complex(rng.NormFloat64()*1e-310, rng.NormFloat64()*5e-324)
	}
	return in
}

func realParts(v []complex128) []float64 {
	out := make([]float64, len(v))
	for i, c := range v {
		out[i] = real(c)
	}
	return out
}

// checkPlanAgainstOracle compares every entry point of a length-n plan with
// the recursive oracle on `rows` rows of one input class.
func checkPlanAgainstOracle(t testing.TB, p *Plan, rows int, name string, in []complex128) {
	t.Helper()
	n, nh := p.n, p.HalfLen()
	tag := func(op string) string { return fmt.Sprintf("n=%d %s %s", n, name, op) }
	clone := func() []complex128 { return append([]complex128(nil), in...) }

	// Complex transforms: single-row calls and the batch calls.
	for _, inverse := range []bool{false, true} {
		want := clone()
		for r := 0; r < rows; r++ {
			if inverse {
				p.recInverse(want[r*n : (r+1)*n])
			} else {
				p.recForward(want[r*n : (r+1)*n])
			}
		}
		single, batch := clone(), clone()
		for r := 0; r < rows; r++ {
			if inverse {
				p.Inverse(single[r*n : (r+1)*n])
			} else {
				p.Forward(single[r*n : (r+1)*n])
			}
		}
		op := "Forward"
		if inverse {
			p.InverseBatch(batch, rows)
			op = "Inverse"
		} else {
			p.ForwardBatch(batch, rows)
		}
		checkComplex(t, tag(op), single, want)
		checkComplex(t, tag(op+"Batch"), batch, want)
	}

	// Real transforms: the real parts as input, the oracle's half spectrum
	// (a Hermitian-consistent one) and the raw complex rows as inverse input.
	src := realParts(in)
	wantSpec := make([]complex128, rows*nh)
	for r := 0; r < rows; r++ {
		p.recForwardReal(wantSpec[r*nh:(r+1)*nh], src[r*n:(r+1)*n])
	}
	single, batch := make([]complex128, rows*nh), make([]complex128, rows*nh)
	for r := 0; r < rows; r++ {
		p.ForwardReal(single[r*nh:(r+1)*nh], src[r*n:(r+1)*n])
	}
	p.ForwardRealBatch(batch, src, rows)
	checkComplex(t, tag("ForwardReal"), single, wantSpec)
	checkComplex(t, tag("ForwardRealBatch"), batch, wantSpec)

	rawSpec := make([]complex128, rows*nh)
	for r := 0; r < rows; r++ {
		copy(rawSpec[r*nh:(r+1)*nh], in[r*n:])
	}
	for _, spec := range [][]complex128{wantSpec, rawSpec} {
		want := make([]float64, rows*n)
		for r := 0; r < rows; r++ {
			p.recInverseReal(want[r*n:(r+1)*n], spec[r*nh:(r+1)*nh])
		}
		single, batch := make([]float64, rows*n), make([]float64, rows*n)
		for r := 0; r < rows; r++ {
			p.InverseReal(single[r*n:(r+1)*n], spec[r*nh:(r+1)*nh])
		}
		p.InverseRealBatch(batch, spec, rows)
		checkReal(t, tag("InverseReal"), single, want)
		checkReal(t, tag("InverseRealBatch"), batch, want)
	}
}

func TestPlanMatchesReference(t *testing.T) {
	var sizes []int
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	// Deep radix-4/3/5 towers, and Bluestein leaves: bare (37, 101) and
	// under radix-2 and radix-4 stages.
	sizes = append(sizes, 160, 243, 256, 625, 1024, 37, 101, 2*37, 4*41)
	const rows = 3
	for _, n := range sizes {
		p := NewPlan(n)
		for name, in := range bitInputs(rows*n, int64(n)) {
			checkPlanAgainstOracle(t, p, rows, name, in)
		}
	}
}

func FuzzPlanBitExact(f *testing.F) {
	for _, n := range []int{1, 2, 12, 37, 64, 74, 105, 961} {
		f.Add(uint16(n), int64(n))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		length := int(n)%2048 + 1
		p := NewPlan(length)
		checkPlanAgainstOracle(t, p, 2, "fuzz", randomVec(2*length, rand.New(rand.NewSource(seed))))
	})
}

// TestBatchAllocFree pins the batch entry points and Plan3 (full, sparse
// and boxed) at zero steady-state allocations: scratch comes from the plan,
// once per batch.
func TestBatchAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates itself")
	}
	for _, n := range []int{64, 60, 74, 35} { // radix 4; 4·3·5; Bluestein leaf; odd
		p := NewPlan(n)
		const rows = 4
		data := randomVec(rows*n, rand.New(rand.NewSource(1)))
		re := realParts(data)
		spec := make([]complex128, rows*p.HalfLen())
		allocs := testing.AllocsPerRun(10, func() {
			p.ForwardBatch(data, rows)
			p.InverseBatch(data, rows)
			p.ForwardRealBatch(spec, re, rows)
			p.InverseRealBatch(re, spec, rows)
		})
		if allocs != 0 {
			t.Errorf("n=%d: batch transforms allocate %v times per run", n, allocs)
		}
	}
	p3 := NewPlan3(6, 8, 5)
	data := randomVec(p3.Len(), rand.New(rand.NewSource(2)))
	if allocs := testing.AllocsPerRun(10, func() {
		p3.Forward(data)
		p3.Inverse(data)
		p3.ForwardSparse(data, Span{5, 2}, Span{-1, 3})
		p3.InverseBox(data, Span{4, 3}, Span{7, 2}, Span{1, 3})
	}); allocs != 0 {
		t.Errorf("Plan3: %v allocations per forward+inverse and sparse forward+boxed inverse", allocs)
	}
}

// TestPlan3MatchesRowwise pins the tiled strided axes against the plain
// definition: one 1-D transform per line, gathered element by element.
func TestPlan3MatchesRowwise(t *testing.T) {
	n := [3]int{6, 8, 5}
	p3 := NewPlan3(n[0], n[1], n[2])
	data := randomVec(p3.Len(), rand.New(rand.NewSource(3)))
	for _, inverse := range []bool{false, true} {
		want := append([]complex128(nil), data...)
		stride := [3]int{n[1] * n[2], n[2], 1}
		for _, axis := range []int{2, 1, 0} {
			pl := NewPlan(n[axis])
			line := make([]complex128, n[axis])
			for base := range want {
				if (base/stride[axis])%n[axis] != 0 {
					continue
				}
				for i := range line {
					line[i] = want[base+i*stride[axis]]
				}
				if inverse {
					pl.recInverse(line)
				} else {
					pl.recForward(line)
				}
				for i := range line {
					want[base+i*stride[axis]] = line[i]
				}
			}
		}
		got := append([]complex128(nil), data...)
		if inverse {
			p3.Inverse(got)
		} else {
			p3.Forward(got)
		}
		checkComplex(t, fmt.Sprintf("Plan3 inverse=%v", inverse), got, want)
	}
}
