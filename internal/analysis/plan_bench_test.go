package analysis

import (
	"math/rand"
	"testing"

	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/par"
)

// benchDomain builds a one-rank domain with a clustered particle set (≈40%
// in halos, the rest uniform) on a 32³ box, refreshed and ready for warm
// analysis passes.
func benchDomain(c *mpi.Comm) (*domain.Domain, *grid.Decomp) {
	n := [3]int{32, 32, 32}
	dec := grid.NewDecomp(n, 1)
	d := domain.New(c, dec, 2)
	rng := rand.New(rand.NewSource(5))
	id := uint64(0)
	add := func(x, y, z float64) {
		d.Active.Append(
			float32(wrapF64(x, 32)), float32(wrapF64(y, 32)), float32(wrapF64(z, 32)),
			rng.Float32(), rng.Float32(), rng.Float32(), id)
		id++
	}
	for h := 0; h < 40; h++ {
		cx, cy, cz := rng.Float64()*32, rng.Float64()*32, rng.Float64()*32
		for i := 0; i < 100; i++ {
			add(cx+rng.NormFloat64()*0.4, cy+rng.NormFloat64()*0.4, cz+rng.NormFloat64()*0.4)
		}
	}
	for i := 0; i < 6000; i++ {
		add(rng.Float64()*32, rng.Float64()*32, rng.Float64()*32)
	}
	d.Refresh()
	return d, dec
}

// uniformBenchDomain builds a one-rank domain with 32³ uniformly random
// particles on a 32³ box (one per cell, the in-situ survey density),
// refreshed and ready for warm analysis passes.
func uniformBenchDomain(c *mpi.Comm) (*domain.Domain, *grid.Decomp) {
	dec := grid.NewDecomp([3]int{32, 32, 32}, 1)
	d := domain.New(c, dec, 2)
	rng := rand.New(rand.NewSource(6))
	for id := uint64(0); id < 32*32*32; id++ {
		d.Active.Append(rng.Float32()*32, rng.Float32()*32, rng.Float32()*32,
			rng.Float32(), rng.Float32(), rng.Float32(), id)
	}
	d.Refresh()
	return d, dec
}

// BenchmarkFOF measures a warm distributed FindHalos pass on one rank
// (multi-rank runs add only the mpi runtime's per-message copies) on the
// clustered set at b = 0.4 and on the uniform one-per-cell set at b = 0.2,
// where the linking-length mesh is widest relative to the particle count.
// The allocation column is the regression guard: a warm plan must stay at
// 0 allocs/op.
func BenchmarkFOF(b *testing.B) {
	sets := []struct {
		name  string
		build func(*mpi.Comm) (*domain.Domain, *grid.Decomp)
		link  float64
	}{
		{"clustered", benchDomain, 0.4},
		{"uniform", uniformBenchDomain, 0.2},
	}
	for _, set := range sets {
		for _, threads := range []int{1, 2, 4} {
			b.Run(set.name+"/"+map[int]string{1: "serial", 2: "pool=2", 4: "pool=4"}[threads], func(b *testing.B) {
				err := mpi.Run(1, func(c *mpi.Comm) {
					d, _ := set.build(c)
					var pool *par.Pool
					if threads > 1 {
						pool = par.NewPool(threads)
					}
					pl := NewPlan(d, pool)
					pl.FindHalos(set.link, 10, 1)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pl.FindHalos(set.link, 10, 1)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkPowerInSitu measures a warm in-situ P(k) pass (deposit, ghost
// accumulate, planned redistribution, r2c forward, pooled binning) on one
// rank, with the serial full-complex oracle alongside for comparison. The
// allocation column guards the persistent-plan property.
func BenchmarkPowerInSitu(b *testing.B) {
	for _, threads := range []int{1, 2} {
		b.Run(map[int]string{1: "serial", 2: "pool=2"}[threads], func(b *testing.B) {
			err := mpi.Run(1, func(c *mpi.Comm) {
				d, dec := benchDomain(c)
				var pool *par.Pool
				if threads > 1 {
					pool = par.NewPool(threads)
				}
				pw := newPower(c, dec, pool, 250, 16)
				pw.Measure(d, true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pw.Measure(d, true)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPowerSerialOracle measures the retained pre-plan estimator for
// the DESIGN.md comparison table.
func BenchmarkPowerSerialOracle(b *testing.B) {
	err := mpi.Run(1, func(c *mpi.Comm) {
		d, dec := benchDomain(c)
		powerSerial(c, dec, d, 250, 16, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			powerSerial(c, dec, d, 250, 16, true)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
