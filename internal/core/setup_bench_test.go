package core

import (
	"testing"

	"hacc/internal/mpi"
)

// BenchmarkNew times set-up — domain, fields, exchangers, the spectral plan
// and the Zel'dovich initial conditions — at pm-wire's shape (32³
// particles on a 64³ grid, PMOnly) over 2 in-process ranks, allocations
// reported. Every iteration builds a fresh world, so the op includes the
// world's start-up, which is small next to New.
func BenchmarkNew(b *testing.B) {
	cfg := Config{
		Solver: PMOnly, NParticles: 32, NGrid: 64, BoxMpc: 128,
		ZInit: 24, ZFinal: 0, Steps: 40, FixedAmp: true, Seed: 42,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) {
			if _, err := New(c, cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
