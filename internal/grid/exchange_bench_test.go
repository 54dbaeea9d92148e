package grid

import (
	"testing"

	"hacc/internal/mpi"
)

// BenchmarkGhostExchange times the PM step's ghost traffic at pm-wire's
// grid: 64³ over 2 in-process ranks with a 6-cell halo (Overload 4 + 2).
// One op is the density Accumulate plus the three acceleration-component
// Fills posted together and then completed, as core's long-range kick
// runs them.
func BenchmarkGhostExchange(b *testing.B) {
	n := [3]int{64, 64, 64}
	err := mpi.Run(2, func(c *mpi.Comm) {
		dec := NewDecomp(n, 2)
		box := dec.Box(c.Rank())
		rho := NewField(n, box, 6)
		randomField(rho, int64(c.Rank()))
		var acc [3]*Field
		for d := range acc {
			acc[d] = NewField(n, box, 6)
			randomField(acc[d], int64(10*c.Rank()+d))
		}
		rhoEx, accEx := NewExchanger(c, dec, rho), NewExchanger(c, dec, acc[0])
		var ops [3]*GhostOp
		step := func() {
			rhoEx.Accumulate(rho)
			for d := range acc {
				ops[d] = accEx.FillBegin(acc[d])
			}
			for d := range acc {
				ops[d].End()
			}
		}
		step()
		mpi.Barrier(c)
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			step()
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
