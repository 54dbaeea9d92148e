package grid

import (
	"math/rand"
	"testing"

	"hacc/internal/par"
)

func randomCloud(n int, lo, span float64, rng *rand.Rand) (xs, ys, zs []float32) {
	xs = make([]float32, n)
	ys = make([]float32, n)
	zs = make([]float32, n)
	for i := 0; i < n; i++ {
		xs[i] = float32(lo + rng.Float64()*span)
		ys[i] = float32(lo + rng.Float64()*span)
		zs[i] = float32(lo + rng.Float64()*span)
	}
	return
}

func TestInterpParallelMatchesSerial(t *testing.T) {
	n := [3]int{24, 24, 24}
	d := NewDecomp(n, 1)
	rng := rand.New(rand.NewSource(11))
	f := NewField(n, d.Box(0), 3)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	xs, ys, zs := randomCloud(20000, 0, 24, rng)
	ser := make([]float32, len(xs))
	InterpCIC(f, xs, ys, zs, ser, 0.75)
	for _, workers := range []int{2, 4, 8} {
		pool := par.NewPool(workers)
		got := make([]float32, len(xs))
		InterpCICParallel(f, xs, ys, zs, got, 0.75, pool)
		for i := range ser {
			// Bitwise equality: sharding must not change per-particle math.
			if ser[i] != got[i] {
				t.Fatalf("workers=%d: particle %d differs: %g vs %g", workers, i, ser[i], got[i])
			}
		}
	}
}

func TestInterpParallelSmallFallsBack(t *testing.T) {
	n := [3]int{16, 16, 16}
	d := NewDecomp(n, 1)
	rng := rand.New(rand.NewSource(12))
	f := NewField(n, d.Box(0), 1)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	xs, ys, zs := randomCloud(50, 0, 16, rng)
	ser := make([]float32, len(xs))
	got := make([]float32, len(xs))
	InterpCIC(f, xs, ys, zs, ser, 1)
	InterpCICParallel(f, xs, ys, zs, got, 1, par.NewPool(8))
	for i := range ser {
		if ser[i] != got[i] {
			t.Fatalf("fallback differs at %d", i)
		}
	}
}

func BenchmarkDepositSerial(b *testing.B) {
	n := [3]int{48, 48, 48}
	d := NewDecomp(n, 1)
	f := NewField(n, d.Box(0), 2)
	rng := rand.New(rand.NewSource(1))
	xs, ys, zs := randomCloud(200000, 0, 48, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepositCIC(f, xs, ys, zs, 1)
	}
}
