package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randomVec(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover radix 2/3/4/5/7 mixes, generic small primes, and Bluestein
	// (41, 97, 2·61) plus the per-rank sizes used by the pencil FFT.
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 25, 27, 30,
		32, 36, 48, 60, 64, 81, 100, 101, 121, 128, 160, 169, 192, 200, 41, 97, 122, 363}
	for _, n := range sizes {
		x := randomVec(n, rng)
		want := naiveDFT(x)
		p := NewPlan(n)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		tol := 1e-9 * float64(n)
		if d := maxDiff(got, want); d > tol {
			t.Errorf("n=%d: max diff %g > %g", n, d, tol)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 12, 45, 64, 97, 120, 128, 160, 210, 256} {
		x := randomVec(n, rng)
		p := NewPlan(n)
		y := append([]complex128(nil), x...)
		p.Forward(y)
		p.Inverse(y)
		tol := 1e-10 * float64(n)
		if d := maxDiff(x, y); d > tol {
			t.Errorf("n=%d round trip diff %g", n, d)
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: Σ|x|² = (1/n)Σ|X|² for random vectors of random length.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		x := randomVec(n, rng)
		var sx float64
		for _, v := range x {
			sx += real(v)*real(v) + imag(v)*imag(v)
		}
		p := NewPlan(n)
		p.Forward(x)
		var sX float64
		for _, v := range x {
			sX += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(sx-sX/float64(n)) < 1e-8*(1+sx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// FFT(a·x + y) == a·FFT(x) + FFT(y).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x := randomVec(n, rng)
		y := randomVec(n, rng)
		p := NewPlan(n)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + y[i]
		}
		p.Forward(comb)
		p.Forward(x)
		p.Forward(y)
		for i := range comb {
			if cmplx.Abs(comb[i]-(a*x[i]+y[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestImpulseAndConstant(t *testing.T) {
	n := 24
	p := NewPlan(n)
	// Impulse at 0 -> all ones.
	x := make([]complex128, n)
	x[0] = 1
	p.Forward(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse: X[%d]=%v", k, v)
		}
	}
	// Constant -> impulse of height n at k=0.
	for i := range x {
		x[i] = 2
	}
	p.Forward(x)
	if cmplx.Abs(x[0]-complex(2*float64(n), 0)) > 1e-10 {
		t.Errorf("constant: X[0]=%v", x[0])
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-10 {
			t.Errorf("constant: X[%d]=%v", k, x[k])
		}
	}
}

func TestSingleModeFrequency(t *testing.T) {
	// x[j] = exp(2πi·5j/n) must transform to an impulse at k=5 (forward
	// convention has the minus sign in the exponent).
	n := 40
	x := make([]complex128, n)
	for j := range x {
		ang := 2 * math.Pi * 5 * float64(j) / float64(n)
		x[j] = cmplx.Exp(complex(0, ang))
	}
	NewPlan(n).Forward(x)
	for k := range x {
		want := 0.0
		if k == 5 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(x[k])-want) > 1e-9 {
			t.Errorf("mode test: |X[%d]|=%g want %g", k, cmplx.Abs(x[k]), want)
		}
	}
}

func TestBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, rows := 16, 5
	data := randomVec(n*rows, rng)
	want := make([]complex128, 0, n*rows)
	for r := 0; r < rows; r++ {
		want = append(want, naiveDFT(data[r*n:(r+1)*n])...)
	}
	p := NewPlan(n)
	p.ForwardBatch(data, rows)
	if d := maxDiff(data, want); d > 1e-10*float64(n) {
		t.Errorf("batch diff %g", d)
	}
	p.InverseBatch(data, rows)
	// After inverse, compare to naive forward-inverse (i.e., original).
}

func TestPlanConcurrentUse(t *testing.T) {
	p := NewPlan(128)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			x := randomVec(128, rng)
			orig := append([]complex128(nil), x...)
			for i := 0; i < 50; i++ {
				p.Forward(x)
				p.Inverse(x)
			}
			done <- maxDiff(x, orig) < 1e-8
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent round trips diverged")
		}
	}
}

func TestPlan3AgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n0, n1, n2 := 4, 6, 5
	data := randomVec(n0*n1*n2, rng)
	// Naive separable reference.
	want := append([]complex128(nil), data...)
	// axis 2
	for r := 0; r < n0*n1; r++ {
		copy(want[r*n2:(r+1)*n2], naiveDFT(want[r*n2:(r+1)*n2]))
	}
	// axis 1
	row := make([]complex128, n1)
	for i0 := 0; i0 < n0; i0++ {
		for i2 := 0; i2 < n2; i2++ {
			for i1 := 0; i1 < n1; i1++ {
				row[i1] = want[(i0*n1+i1)*n2+i2]
			}
			out := naiveDFT(row)
			for i1 := 0; i1 < n1; i1++ {
				want[(i0*n1+i1)*n2+i2] = out[i1]
			}
		}
	}
	// axis 0
	col := make([]complex128, n0)
	for i1 := 0; i1 < n1; i1++ {
		for i2 := 0; i2 < n2; i2++ {
			for i0 := 0; i0 < n0; i0++ {
				col[i0] = want[(i0*n1+i1)*n2+i2]
			}
			out := naiveDFT(col)
			for i0 := 0; i0 < n0; i0++ {
				want[(i0*n1+i1)*n2+i2] = out[i0]
			}
		}
	}
	p := NewPlan3(n0, n1, n2)
	p.Forward(data)
	if d := maxDiff(data, want); d > 1e-9 {
		t.Errorf("3d diff %g", d)
	}
	// Round trip.
	p.Inverse(data)
}

func TestPlan3RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPlan3(8, 8, 8)
	x := randomVec(512, rng)
	y := append([]complex128(nil), x...)
	p.Forward(y)
	p.Inverse(y)
	if d := maxDiff(x, y); d > 1e-10 {
		t.Errorf("3d round trip diff %g", d)
	}
}

func BenchmarkForward1024(b *testing.B) {
	p := NewPlan(1024)
	x := randomVec(1024, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkForward160(b *testing.B) {
	// Non-power-of-two size typical of per-rank pencil lengths (Table I).
	p := NewPlan(160)
	x := randomVec(160, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

// BenchmarkBatch1D is the per-layer figure behind the long-range solve: one
// forward and one inverse batch over 64 rows, reported per point.
func BenchmarkBatch1D(b *testing.B) {
	for _, n := range []int{20, 32, 64, 160, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			const rows = 64
			p := NewPlan(n)
			data := randomVec(rows*n, rand.New(rand.NewSource(1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForwardBatch(data, rows)
				p.InverseBatch(data, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*rows*n), "ns/point")
		})
	}
}
