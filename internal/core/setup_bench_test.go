package core

import (
	"testing"

	"hacc/internal/mpi"
)

// treeUniformBench is skybench tree-uniform's shape, shared by BenchmarkNew
// and BenchmarkRestore.
var treeUniformBench = Config{
	Solver: PPTreePM, NParticles: 20, NGrid: 20, BoxMpc: 80,
	ZInit: 24, ZFinal: 0, Steps: 40, SubCycles: 5, FixedAmp: true, Seed: 42,
}

// BenchmarkNew times set-up — domain, fields, exchangers, the spectral plan,
// the short-range kernel fit and the Zel'dovich initial conditions — over 2
// in-process ranks, allocations reported, at two workload shapes:
//   - pm-wire: 32³ particles on a 64³ grid, PMOnly (no kernel fit);
//   - tree-uniform: 20³ particles on a 20³ grid, PPTreePM, where the
//     kernel fit's 32³ source solves, split across the ranks, dominate.
//
// Every iteration builds a fresh world, so the op includes the world's
// start-up, which is small next to New.
func BenchmarkNew(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"pm-wire", Config{
			Solver: PMOnly, NParticles: 32, NGrid: 64, BoxMpc: 128,
			ZInit: 24, ZFinal: 0, Steps: 40, FixedAmp: true, Seed: 42,
		}},
		{"tree-uniform", treeUniformBench},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(2, func(c *mpi.Comm) {
					if _, err := New(c, bc.cfg); err != nil {
						panic(err)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
