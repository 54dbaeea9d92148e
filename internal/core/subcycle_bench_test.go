package core

import (
	"testing"

	"hacc/internal/domain"
	"hacc/internal/mpi"
)

// benchSubCycleCfg is a single-rank Table II-like problem, small enough to
// iterate quickly but large enough that the tree has real depth.
func benchSubCycleCfg(solver SolverKind, threads int) Config {
	return Config{
		NGrid: 24, NParticles: 24, BoxMpc: 8 * 24,
		ZInit: 24, ZFinal: 10, Steps: 2, SubCycles: 3,
		Solver: PMOnly, Seed: 7, Threads: threads,
	}.withSolver(solver)
}

func (c Config) withSolver(s SolverKind) Config { c.Solver = s; return c }

// BenchmarkSubCycle measures one short-range sub-cycle (kickShort + stream)
// with ReportAllocs, so allocation churn on the per-substep path cannot be
// reintroduced silently: the persistent scratch keeps this at (amortized)
// zero allocations per sub-cycle.
func BenchmarkSubCycle(b *testing.B) {
	for _, tc := range []struct {
		name   string
		solver SolverKind
	}{{"tree", PPTreePM}, {"p3m", P3M}} {
		b.Run(tc.name, func(b *testing.B) {
			err := mpi.Run(1, func(c *mpi.Comm) {
				s, err := New(c, benchSubCycleCfg(tc.solver, 2))
				if err != nil {
					panic(err)
				}
				const w = 1e-3
				s.kickShort(w) // warm caches and scratch
				s.stream(w)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.kickShort(w)
					s.stream(w)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGridKick measures the PM-kick interpolation/momentum-update path
// (applyGridKickComponent over all three components of actives+passives)
// with ReportAllocs; the persistent gather buffer keeps it allocation-free
// after warmup.
func BenchmarkGridKick(b *testing.B) {
	err := mpi.Run(1, func(c *mpi.Comm) {
		s, err := New(c, benchSubCycleCfg(PMOnly, 2))
		if err != nil {
			panic(err)
		}
		const w = 1e-3
		kick := func(p *domain.Particles) {
			for d := 0; d < 3; d++ {
				s.applyGridKickComponent(p, d, w)
			}
		}
		kick(&s.Dom.Active)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kick(&s.Dom.Active)
			kick(&s.Dom.Passive)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}
