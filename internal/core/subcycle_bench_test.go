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

// subCycleSims builds one warmed single-rank simulation per short-range
// solver and hands each to fn on its rank goroutine.
func subCycleSims(fn func(name string, s *Simulation)) error {
	for _, tc := range []struct {
		name   string
		solver SolverKind
	}{{"tree", PPTreePM}, {"p3m", P3M}} {
		err := mpi.Run(1, func(c *mpi.Comm) {
			s, err := New(c, benchSubCycleCfg(tc.solver, 2))
			if err != nil {
				panic(err)
			}
			s.kickShort(subCycleW) // warm caches, solver and driver state
			s.stream(subCycleW)
			fn(tc.name, s)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

const subCycleW = 1e-3

// subCycleAllocs is the pinned allocation count of one sub-cycle
// (kickShort + stream): the closures of the two pooled per-particle loops,
// the velocity kick and the position stream. Everything else — the
// driver's working arrays, its bound worker body, the solver index and the
// bound kernel — persists across sub-cycles.
const subCycleAllocs = 2

// TestSubCycleAllocs pins the per-sub-cycle allocations of both solvers, so
// allocation churn on the hottest path cannot come back silently.
func TestSubCycleAllocs(t *testing.T) {
	err := subCycleSims(func(name string, s *Simulation) {
		got := testing.AllocsPerRun(10, func() {
			s.kickShort(subCycleW)
			s.stream(subCycleW)
		})
		if got > subCycleAllocs {
			t.Errorf("%s: %v allocations per sub-cycle, want ≤ %d", name, got, subCycleAllocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSubCycle measures one short-range sub-cycle (kickShort + stream)
// with ReportAllocs: subCycleAllocs (2) allocations per sub-cycle, pinned by
// TestSubCycleAllocs.
func BenchmarkSubCycle(b *testing.B) {
	err := subCycleSims(func(name string, s *Simulation) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.kickShort(subCycleW)
				s.stream(subCycleW)
			}
		})
	})
	if err != nil {
		b.Fatal(err)
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
