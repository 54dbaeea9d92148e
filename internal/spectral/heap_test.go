package spectral

import (
	"runtime"
	"testing"

	"hacc/internal/grid"
	"hacc/internal/mpi"
)

// TestPoissonPlanHeap pins that the Poisson plan carries only the
// real-to-complex path it runs and no copy of the fields it serves: on 64³
// over 2 ranks a warm plan holds its half-spectrum transform buffers,
// kernel, x-pencil scratch, run lists and one pack buffer per element type
// — 5.9 MB measured, bounded at 7 MB (≈ 20 % for allocator variance). It
// held 9.8 MB while the solve copied the owned region through a buffer of
// its own and every redistribution kept its own pack buffers, and ≈ 17 MB
// more when the pencil also built a complex-to-complex path, eagerly.
func TestPoissonPlanHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("64³ plan")
	}
	n := [3]int{64, 64, 64}
	var before, after runtime.MemStats
	err := mpi.Run(2, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, 2)
		b := dec.Box(c.Rank())
		rho := grid.NewField(n, b, 1)
		depositRandom(rho, dec, c.Rank(), n, 5)
		var acc [3]*grid.Field
		for d := range acc {
			acc[d] = grid.NewField(n, b, 1)
		}
		heap := func(m *runtime.MemStats) {
			mpi.Barrier(c)
			if c.Rank() == 0 { // the ranks share one heap
				runtime.GC()
				runtime.ReadMemStats(m)
			}
			mpi.Barrier(c)
		}
		heap(&before)
		ps := NewPoisson(c, dec, Options{OmegaM: 0.3, Filter: true})
		ps.Solve(rho, &acc)
		heap(&after)
		runtime.KeepAlive(ps)
	})
	if err != nil {
		t.Fatal(err)
	}
	grown := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("warm Poisson plan: %.1f MB live heap over 2 ranks", grown)
	if grown > 7 {
		t.Errorf("warm Poisson plan holds %.1f MB of live heap, want ≤ 7 MB", grown)
	}
}
