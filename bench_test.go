// Benchmarks regenerating every table and figure of the paper's evaluation,
// scaled to a single machine (see DESIGN.md's per-experiment index). Each
// benchmark prints its table on the first iteration; ns/op measures the
// headline operation of the experiment.
package hacc_test

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"hacc/internal/bench"
	"hacc/internal/core"
	"hacc/internal/mpi"
)

var printOnce sync.Map

// once prints a table a single time per benchmark, regardless of b.N.
func once(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
	}
}

// BenchmarkTableI_FFTStrongScaling reproduces the first block of Table I:
// a fixed-size FFT (scaled from 1024³ to 64³) over growing rank counts.
func BenchmarkTableI_FFTStrongScaling(b *testing.B) {
	var rows []bench.FFTResult
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		r, err := bench.RunFFT(64, ranks, true, 2)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, r)
		// The r2c production path rides along at each rank count.
		rr, err := bench.RunFFTReal(64, ranks, 2)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, rr)
	}
	once("table1s", func() {
		fmt.Println("\n=== Table I (strong scaling block, scaled: 1024^3 -> 64^3) ===")
		bench.PrintFFTTable(os.Stdout, rows)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFFT(64, 4, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_FFTWeakScaling reproduces the second/third blocks of
// Table I: near-constant grid per rank while ranks grow, non-power-of-two
// sizes included (the paper's 9216³ etc.).
func BenchmarkTableI_FFTWeakScaling(b *testing.B) {
	var rows []bench.FFTResult
	cases := []struct{ n, ranks int }{
		{32, 1}, {40, 2}, {48, 4}, {64, 8}, {80, 16},
	}
	for _, tc := range cases {
		r, err := bench.RunFFT(tc.n, tc.ranks, true, 2)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, r)
	}
	once("table1w", func() {
		fmt.Println("\n=== Table I (weak scaling blocks, ~const grid/rank, non-pow2 sizes) ===")
		bench.PrintFFTTable(os.Stdout, rows)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFFT(48, 4, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_KernelThreading reproduces Fig. 5: force-kernel throughput
// vs neighbor-list size for several thread counts; the paper's plateau at
// large lists and gain from threading should both appear.
func BenchmarkFig5_KernelThreading(b *testing.B) {
	var rows []bench.KernelResult
	for _, threads := range []int{1, 2, 4, 8} {
		for _, list := range []int{64, 256, 512, 1024, 2560, 5000} {
			rows = append(rows, bench.RunKernel(list, 64, threads, 30*time.Millisecond))
		}
	}
	once("fig5", func() {
		fmt.Println("\n=== Fig. 5 (kernel throughput vs list size × threads) ===")
		bench.PrintKernelTable(os.Stdout, rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	var last bench.KernelResult
	for i := 0; i < b.N; i++ {
		last = bench.RunKernel(1024, 64, 4, 10*time.Millisecond)
	}
	b.ReportMetric(last.InteractionsSec, "interactions/s")
}

// BenchmarkFig6_PoissonWeakScaling reproduces Fig. 6: time per solve per
// point for the slab- and pencil-decomposed Poisson solver vs rank count.
func BenchmarkFig6_PoissonWeakScaling(b *testing.B) {
	var rows []bench.PoissonResult
	cases := []struct{ n, ranks int }{{32, 1}, {40, 2}, {48, 4}, {64, 8}}
	for _, tc := range cases {
		r, err := bench.RunPoisson(tc.n, tc.ranks, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, r)
		rs, err := bench.RunPoisson(tc.n, tc.ranks, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, rs)
	}
	once("fig6", func() {
		fmt.Println("\n=== Fig. 6 (Poisson solver weak scaling, slab vs pencil) ===")
		bench.PrintPoissonTable(os.Stdout, rows)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPoisson(32, 4, false, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_WeakScaling reproduces Table II / Fig. 7: full code with
// fixed particles per rank; time/substep/particle should stay flat.
func BenchmarkTableII_WeakScaling(b *testing.B) {
	var rows []bench.FullResult
	cases := []struct {
		ranks, np int
	}{{1, 16}, {2, 20}, {4, 26}, {8, 32}}
	for _, tc := range cases {
		r, err := bench.RunFull(bench.FullOptions{
			Ranks: tc.ranks, NpPerDim: tc.np, Solver: core.PPTreePM,
			Steps: 1, SubCycles: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, r)
	}
	once("table2", func() {
		fmt.Println("\n=== Table II / Fig. 7 (full-code weak scaling, ~4k particles/rank) ===")
		bench.PrintFullTable(os.Stdout, rows, 0)
		bench.PrintPhaseSplit(os.Stdout, rows[len(rows)-1])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFull(bench.FullOptions{
			Ranks: 4, NpPerDim: 26, Solver: core.PPTreePM, Steps: 1, SubCycles: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_StrongScaling reproduces Table III / Fig. 8: a fixed
// 32³ problem over growing rank counts; near-ideal scaling that degrades as
// the overloaded fraction blows up (the paper's 16384-core regime).
func BenchmarkTableIII_StrongScaling(b *testing.B) {
	var rows []bench.FullResult
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		r, err := bench.RunFull(bench.FullOptions{
			Ranks: ranks, NpPerDim: 32, Solver: core.PPTreePM,
			Steps: 1, SubCycles: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, r)
	}
	once("table3", func() {
		fmt.Println("\n=== Table III / Fig. 8 (full-code strong scaling, 32^3 particles) ===")
		bench.PrintFullTable(os.Stdout, rows, rows[0].MemMBPerRank)
		fmt.Printf("overload fraction by rank count:")
		for _, r := range rows {
			fmt.Printf("  %d:%.2f", r.Ranks, r.OverloadFrac)
		}
		fmt.Println(" (cost of shrinking sub-volumes, §IV-C)")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFull(bench.FullOptions{
			Ranks: 8, NpPerDim: 32, Solver: core.PPTreePM, Steps: 1, SubCycles: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_Evolution reproduces Fig. 9's operational claim: per-step
// wall-clock stays roughly constant while the density contrast grows by
// orders of magnitude.
func BenchmarkFig9_Evolution(b *testing.B) {
	r, err := bench.RunEvolution(4, 32, 120, 10, 24, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	once("fig9", func() {
		fmt.Println("\n=== Fig. 9 (structure evolution: wall-clock vs clustering) ===")
		bench.PrintEvolution(os.Stdout, r)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunEvolution(4, 24, 100, 4, 24, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_PowerSpectrum reproduces Fig. 10: P(k) at a ladder of
// redshifts, linear at low k and increasingly nonlinear at high k.
func BenchmarkFig10_PowerSpectrum(b *testing.B) {
	r, err := bench.RunPowerEvolution(4, 32, 150, 12, []float64{5.5, 3.0, 1.9, 0.9, 0.4, 0.0})
	if err != nil {
		b.Fatal(err)
	}
	once("fig10", func() {
		fmt.Println("\n=== Fig. 10 (power spectrum evolution; sim vs linear theory) ===")
		bench.PrintPowerEvolution(os.Stdout, r)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPowerEvolution(2, 16, 100, 4, []float64{5.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11_Halos reproduces Fig. 11 / §V: FOF halos, sub-halo
// decomposition of the largest, and the mass function against
// Sheth-Tormen and Press-Schechter.
func BenchmarkFig11_Halos(b *testing.B) {
	r, err := bench.RunHalos(4, 32, 100, 12, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	once("fig11", func() {
		fmt.Println("\n=== Fig. 11 / §V (halos, sub-halos, mass function) ===")
		bench.PrintHalos(os.Stdout, r)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunHalos(2, 16, 60, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// imbalanceResult captures one load-balancing run: the max/mean per-rank
// short-range work of the final (most clustered) step, plus the balancer's
// rebalance count.
type imbalanceResult struct {
	LastStepImb float64
	Rebalances  int64
}

// runImbalance evolves the clustered halo IC on 8 ranks and measures the
// final step's per-rank work imbalance (kernel interactions + walk nodes,
// the deterministic stand-in for step time).
func runImbalance(rebalance bool) (imbalanceResult, error) {
	var res imbalanceResult
	// The schedule (z = 3 → 1 in 6 steps) and the clustered IC defaults are
	// matched: per-step drift stays within the ~1-cell overload margin, which
	// narrow rebalanced slabs require (see ic.ClusteredOptions.ScaleRad).
	// Threads is pinned (not left to the single-core default) so the walk
	// has several workers; it is bitwise-neutral, so the work counters
	// compare exactly across hosts.
	cfg := core.Config{
		NGrid: 24, NParticles: 24, BoxMpc: 8 * 24,
		ZInit: 3, ZFinal: 1, Steps: 6, SubCycles: 2,
		Solver: core.PPTreePM, Seed: 77, ICKind: "halo",
		Threads: 4,
	}
	if rebalance {
		cfg.RebalanceThreshold = 1.1
		cfg.RebalanceMinSteps = 1
	}
	err := mpi.Run(8, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		var imb float64
		for s.StepIndex < cfg.Steps {
			prev := s.Counters.KernelInteractions + s.Counters.WalkNodes
			if err := s.Step(); err != nil {
				panic(err)
			}
			d := float64(s.Counters.KernelInteractions + s.Counters.WalkNodes - prev)
			work := mpi.AllGather(c, []float64{d})
			var max, sum float64
			for _, w := range work {
				if w > max {
					max = w
				}
				sum += w
			}
			imb = max / (sum / float64(len(work)))
		}
		if c.Rank() == 0 {
			res.LastStepImb = imb
			res.Rebalances = s.Counters.Rebalances
		}
	})
	return res, err
}

// BenchmarkLoadImbalance is the late-time load-balancing acceptance
// experiment: the deliberately clustered IC (one deep Plummer halo) on 8
// ranks, static uniform decomposition vs cost-driven rebalancing. The
// reported metric is the final step's max/mean per-rank work; the balancer
// must improve it ≥ 2×.
func BenchmarkLoadImbalance(b *testing.B) {
	static, err := runImbalance(false)
	if err != nil {
		b.Fatal(err)
	}
	balanced, err := runImbalance(true)
	if err != nil {
		b.Fatal(err)
	}
	if balanced.Rebalances == 0 {
		b.Fatal("balancer never fired on the clustered IC")
	}
	once("imbalance", func() {
		fmt.Println("\n=== Load imbalance (clustered halo IC, 8 ranks, final step) ===")
		fmt.Printf("static     max/mean work: %.2f\n", static.LastStepImb)
		fmt.Printf("rebalanced max/mean work: %.2f  (%d rebalances)\n",
			balanced.LastStepImb, balanced.Rebalances)
		fmt.Printf("improvement: %.1fx (acceptance: >= 2x)\n", static.LastStepImb/balanced.LastStepImb)
	})
	b.ReportMetric(static.LastStepImb, "static_max/mean")
	b.ReportMetric(balanced.LastStepImb, "balanced_max/mean")
	b.ReportMetric(static.LastStepImb/balanced.LastStepImb, "improvement_x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runImbalance(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_LeafSize sweeps the RCB fat-leaf capacity, the paper's
// walk-minimization trade-off (§III).
func BenchmarkAblation_LeafSize(b *testing.B) {
	for _, leaf := range []int{8, 24, 64, 128, 256} {
		b.Run(fmt.Sprintf("leaf%d", leaf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunFull(bench.FullOptions{
					Ranks: 2, NpPerDim: 24, Solver: core.PPTreePM,
					Steps: 1, SubCycles: 3, LeafSize: leaf,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SolverBackends compares the PPTreePM and P3M backends
// on the same problem (paper §II: interchangeable short-range solvers).
func BenchmarkAblation_SolverBackends(b *testing.B) {
	for _, s := range []core.SolverKind{core.PPTreePM, core.P3M, core.PMOnly} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunFull(bench.FullOptions{
					Ranks: 2, NpPerDim: 24, Solver: s, Steps: 1, SubCycles: 3,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Threads sweeps intra-rank threading of the full code on
// the Table II configuration (4 ranks, 26³, 3 sub-cycles): the fully-
// threaded pipeline (§VI) should show wall-clock gains beyond one thread.
func BenchmarkAblation_Threads(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunFull(bench.FullOptions{
					Ranks: 4, NpPerDim: 26, Solver: core.PPTreePM,
					Steps: 1, SubCycles: 3, Threads: threads,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Overload sweeps the overload shell width: wider shells
// cost memory and redundant work but tolerate sparser refreshes (§II).
func BenchmarkAblation_Overload(b *testing.B) {
	for _, ov := range []float64{3.5, 4, 5, 6} {
		b.Run(fmt.Sprintf("ov%.1f", ov), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunFullWithConfig(bench.FullOptions{
					Ranks: 4, NpPerDim: 24, Solver: core.PPTreePM,
					Steps: 1, SubCycles: 3,
				}, func(c *core.Config) { c.Overload = ov })
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(r.OverloadFrac, "overload_frac")
					b.ReportMetric(r.MemMBPerRank, "MB/rank")
				}
			}
		})
	}
}

// BenchmarkAblation_Filter compares the HACC spectral filter against the
// conventional deconvolved PM and the bare PM (§II, eq. 5): the filter's
// run-time cost is nil — the point of the ablation is the accuracy table
// printed by TestFilterReducesAnisotropy.
func BenchmarkAblation_Filter(b *testing.B) {
	for _, mode := range []string{"filter", "bare"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := bench.RunFullWithConfig(bench.FullOptions{
					Ranks: 2, NpPerDim: 24, Solver: core.PMOnly,
					Steps: 1, SubCycles: 2,
				}, func(c *core.Config) { c.DisableFilter = mode == "bare" })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
