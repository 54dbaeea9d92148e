package spectral

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/race"
)

// depositRandom deposits this rank's share of a random particle set.
func depositRandom(rho *grid.Field, dec *grid.Decomp, rank int, n [3]int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	np := n[0] * n[1] * n[2] / 4
	var xs, ys, zs []float32
	for i := 0; i < np; i++ {
		x := rng.Float64() * float64(n[0])
		y := rng.Float64() * float64(n[1])
		z := rng.Float64() * float64(n[2])
		if dec.RankOf(x, y, z) != rank {
			continue
		}
		xs = append(xs, float32(x))
		ys = append(ys, float32(y))
		zs = append(zs, float32(z))
	}
	grid.DepositCIC(rho, xs, ys, zs, 4)
}

// TestSolveMatchesReference pins the planned, pooled, real-to-complex Solve
// against the retained pre-plan implementation (full complex transforms,
// one-shot redistributions). The r2c transform reorders float summation, so
// the match is relative at 1e-12 rather than bitwise.
func TestSolveMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       [3]int
		ranks   int
		slab    bool
		threads int // per-rank pool size; 0 = serial
	}{
		{"serial-1rank", [3]int{16, 16, 16}, 1, false, 0},
		{"pooled-4rank", [3]int{16, 16, 16}, 4, false, 3},
		{"slab-4rank", [3]int{16, 16, 16}, 4, true, 0},
		// Non-cubic grids whose z extent exceeds the x and y extents (and
		// the reverse): each gradient axis must index its own table.
		{"long-z-1rank", [3]int{4, 6, 16}, 1, false, 0},
		{"long-z-pooled-2rank", [3]int{6, 4, 16}, 2, false, 3},
		{"long-x-slab-2rank", [3]int{16, 6, 4}, 2, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			err := mpi.Run(tc.ranks, func(c *mpi.Comm) {
				dec := grid.NewDecomp(n, tc.ranks)
				b := dec.Box(c.Rank())
				rho := grid.NewField(n, b, 1)
				depositRandom(rho, dec, c.Rank(), n, 12)
				ex := grid.NewExchanger(c, dec, rho)
				ex.Accumulate(rho)
				var pool *par.Pool
				if tc.threads > 0 {
					pool = par.NewPool(tc.threads) // pools are per-rank state
				}
				ps := NewPoisson(c, dec, Options{OmegaM: 0.3, Filter: true, Slab: tc.slab, Pool: pool})
				var acc, ref [3]*grid.Field
				for d := 0; d < 3; d++ {
					acc[d] = grid.NewField(n, b, 1)
					ref[d] = grid.NewField(n, b, 1)
				}
				ps.solveReference(rho, &ref)
				// Run the production path twice: the second pass reuses warm
				// plans and scratch and must reproduce the first bitwise.
				ps.Solve(rho, &acc)
				var first [3][]float64
				for d := 0; d < 3; d++ {
					first[d] = append([]float64(nil), acc[d].Data...)
				}
				ps.Solve(rho, &acc)
				for d := 0; d < 3; d++ {
					for i := range first[d] {
						if acc[d].Data[i] != first[d][i] {
							t.Errorf("rank %d comp %d: warm Solve diverged at %d", c.Rank(), d, i)
							return
						}
					}
				}
				var scale float64
				for d := 0; d < 3; d++ {
					for _, v := range ref[d].Data {
						if a := math.Abs(v); a > scale {
							scale = a
						}
					}
				}
				for d := 0; d < 3; d++ {
					for i := range ref[d].Data {
						if math.Abs(acc[d].Data[i]-ref[d].Data[i]) > 1e-12*scale {
							t.Errorf("rank %d comp %d idx %d: r2c %g != reference %g",
								c.Rank(), d, i, acc[d].Data[i], ref[d].Data[i])
							return
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkPoissonSolve is the allocation regression guard for the
// long-range path (the spectral mirror of core's BenchmarkSubCycle /
// BenchmarkGridKick): with the planned pipeline, steady-state Solve
// allocates only the per-dispatch pool closures.
func BenchmarkPoissonSolve(b *testing.B) {
	n := [3]int{32, 32, 32}
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, 1)
		box := dec.Box(0)
		rho := grid.NewField(n, box, 1)
		depositRandom(rho, dec, 0, n, 3)
		ps := NewPoisson(c, dec, Options{OmegaM: 0.3, Filter: true, Pool: par.NewPool(2)})
		var acc [3]*grid.Field
		for d := 0; d < 3; d++ {
			acc[d] = grid.NewField(n, box, 1)
		}
		ps.Solve(rho, &acc) // warm plans and scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.Solve(rho, &acc)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPoissonSolveReference measures the retained pre-plan path, so
// `benchstat` (or eyeballing allocs/op) quantifies what planning buys.
func BenchmarkPoissonSolveReference(b *testing.B) {
	n := [3]int{32, 32, 32}
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, 1)
		box := dec.Box(0)
		rho := grid.NewField(n, box, 1)
		depositRandom(rho, dec, 0, n, 3)
		ps := NewPoisson(c, dec, Options{OmegaM: 0.3, Filter: true})
		var acc [3]*grid.Field
		for d := 0; d < 3; d++ {
			acc[d] = grid.NewField(n, box, 1)
		}
		ps.solveReference(rho, &acc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.solveReference(rho, &acc)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestSolveAllocFree pins the steady-state long-range solve at zero
// allocations on one rank, serial and pooled: plans, run lists, stage
// tables and scratch are all built once.
func TestSolveAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates itself")
	}
	for _, threads := range []int{0, 2} {
		n := [3]int{16, 12, 10}
		err := mpi.Run(1, func(c *mpi.Comm) {
			dec := grid.NewDecomp(n, 1)
			box := dec.Box(0)
			rho := grid.NewField(n, box, 1)
			depositRandom(rho, dec, 0, n, 3)
			opts := Options{OmegaM: 0.3, Filter: true}
			if threads > 0 {
				opts.Pool = par.NewPool(threads)
			}
			ps := NewPoisson(c, dec, opts)
			var acc [3]*grid.Field
			for d := 0; d < 3; d++ {
				acc[d] = grid.NewField(n, box, 1)
			}
			ps.Solve(rho, &acc) // warm plans and scratch
			if allocs := testing.AllocsPerRun(5, func() { ps.Solve(rho, &acc) }); allocs != 0 {
				t.Errorf("threads=%d: Solve allocates %v times per call", threads, allocs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
