// Command haccbench regenerates the paper's tables and figures on demand.
//
// Usage:
//
//	haccbench fft      [-n 64] [-maxranks 16]         Table I
//	haccbench kernel   [-threads 8]                   Fig. 5
//	haccbench poisson  [-maxranks 8]                  Fig. 6
//	haccbench weak     [-steps 1]                     Table II / Fig. 7
//	haccbench strong   [-np 32] [-maxranks 16]        Table III / Fig. 8
//	haccbench evolve   [-np 32] [-steps 10]           Fig. 9
//	haccbench power    [-np 32] [-steps 12]           Fig. 10
//	haccbench halos    [-np 32] [-steps 12]           Fig. 11 / §V
//	haccbench ablate                                  leaf, solver, threads, overload, filter
//	haccbench all                                     everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hacc/internal/bench"
	"hacc/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 64, "FFT grid size per dimension")
	np := fs.Int("np", 32, "particles per dimension")
	maxRanks := fs.Int("maxranks", 16, "largest rank count in sweeps")
	steps := fs.Int("steps", 0, "number of full steps (0 = experiment default)")
	threads := fs.Int("threads", 8, "max threads in the kernel sweep")
	box := fs.Float64("box", 0, "box size in Mpc/h (0 = experiment default)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		fmt.Printf("\n===== %s =====\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s took %.1fs]\n", name, time.Since(start).Seconds())
	}

	dispatch := map[string]func() error{
		"fft":     func() error { return fftExp(*n, *maxRanks) },
		"kernel":  func() error { return kernelExp(*threads) },
		"poisson": func() error { return poissonExp(*maxRanks) },
		"weak":    func() error { return weakExp(orDefault(*steps, 1)) },
		"strong":  func() error { return strongExp(*np, *maxRanks) },
		"evolve":  func() error { return evolveExp(*np, orDefault(*steps, 10), orDefaultF(*box, 120)) },
		"power":   func() error { return powerExp(*np, orDefault(*steps, 12), orDefaultF(*box, 150)) },
		"halos":   func() error { return halosExp(*np, orDefault(*steps, 12), orDefaultF(*box, 100)) },
		"ablate":  ablateExp,
	}
	if cmd == "all" {
		for _, name := range []string{"fft", "kernel", "poisson", "weak", "strong", "evolve", "power", "halos", "ablate"} {
			run(name, dispatch[name])
		}
		return
	}
	fn, ok := dispatch[cmd]
	if !ok {
		usage()
		os.Exit(2)
	}
	run(cmd, fn)
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func orDefaultF(v, d float64) float64 {
	if v == 0 {
		return d
	}
	return v
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: haccbench {fft|kernel|poisson|weak|strong|evolve|power|halos|ablate|all} [flags]")
}

func fftExp(n, maxRanks int) error {
	fmt.Println("Table I: distributed FFT scaling (r2c pencil, wall time per transform)")
	var rows []bench.FFTResult
	for r := 1; r <= maxRanks; r *= 2 {
		row, err := bench.RunFFT(n, r, 2)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	// Weak-scaling block with non-power-of-two sizes (paper's 9216³ etc.).
	weak := []struct{ n, ranks int }{{32, 1}, {40, 2}, {48, 4}, {64, 8}}
	for _, tc := range weak {
		if tc.ranks > maxRanks {
			break
		}
		row, err := bench.RunFFT(tc.n, tc.ranks, 2)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	bench.PrintFFTTable(os.Stdout, rows)
	return nil
}

func kernelExp(maxThreads int) error {
	fmt.Println("Fig. 5: short-range force kernel throughput")
	var rows []bench.KernelResult
	for t := 1; t <= maxThreads; t *= 2 {
		for _, list := range []int{64, 128, 256, 512, 1024, 2560, 5000} {
			rows = append(rows, bench.RunKernel(list, 64, t, 50*time.Millisecond))
		}
	}
	bench.PrintKernelTable(os.Stdout, rows)
	return nil
}

func poissonExp(maxRanks int) error {
	fmt.Println("Fig. 6: Poisson solver weak scaling, slab vs pencil")
	var rows []bench.PoissonResult
	cases := []struct{ n, ranks int }{{32, 1}, {40, 2}, {48, 4}, {64, 8}, {80, 16}}
	for _, tc := range cases {
		if tc.ranks > maxRanks {
			break
		}
		for _, slab := range []bool{false, true} {
			row, err := bench.RunPoisson(tc.n, tc.ranks, slab, 1)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	bench.PrintPoissonTable(os.Stdout, rows)
	return nil
}

func weakExp(steps int) error {
	fmt.Println("Table II / Fig. 7: full-code weak scaling (~4k particles/rank)")
	var rows []bench.FullResult
	cases := []struct{ ranks, np int }{{1, 16}, {2, 20}, {4, 26}, {8, 32}, {16, 40}}
	for _, tc := range cases {
		row, err := bench.RunFull(bench.FullOptions{
			Ranks: tc.ranks, NpPerDim: tc.np, Solver: core.PPTreePM,
			Steps: steps, SubCycles: 3,
		})
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	bench.PrintFullTable(os.Stdout, rows, 0)
	bench.PrintPhaseSplit(os.Stdout, rows[len(rows)-1])
	return nil
}

func strongExp(np, maxRanks int) error {
	fmt.Println("Table III / Fig. 8: full-code strong scaling")
	var rows []bench.FullResult
	for r := 1; r <= maxRanks; r *= 2 {
		row, err := bench.RunFull(bench.FullOptions{
			Ranks: r, NpPerDim: np, Solver: core.PPTreePM, Steps: 1, SubCycles: 3,
		})
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	bench.PrintFullTable(os.Stdout, rows, rows[0].MemMBPerRank)
	fmt.Print("overload fraction by rank count:")
	for _, r := range rows {
		fmt.Printf("  %d:%.2f", r.Ranks, r.OverloadFrac)
	}
	fmt.Println()
	return nil
}

func evolveExp(np, steps int, box float64) error {
	fmt.Println("Fig. 9: structure evolution vs wall-clock per step")
	r, err := bench.RunEvolution(4, np, box, steps, 24, 0.5)
	if err != nil {
		return err
	}
	bench.PrintEvolution(os.Stdout, r)
	return nil
}

func powerExp(np, steps int, box float64) error {
	fmt.Println("Fig. 10: power spectrum evolution")
	r, err := bench.RunPowerEvolution(4, np, box, steps, []float64{5.5, 3.0, 1.9, 0.9, 0.4, 0.0})
	if err != nil {
		return err
	}
	bench.PrintPowerEvolution(os.Stdout, r)
	return nil
}

func halosExp(np, steps int, box float64) error {
	fmt.Println("Fig. 11 / §V: halos, sub-halos, mass function")
	r, err := bench.RunHalos(4, np, box, steps, 0.5)
	if err != nil {
		return err
	}
	bench.PrintHalos(os.Stdout, r)
	return nil
}

// ablation is one variant of a design-choice sweep: a full-code point and
// the config change that selects the variant.
type ablation struct {
	sweep, variant string
	opts           bench.FullOptions
	mod            func(*core.Config)
}

// ablateExp sweeps the design choices the paper argues for, one row per
// variant: the RCB fat-leaf capacity (§III's walk-minimization
// trade-off), the interchangeable short-range backends (§II), intra-rank
// threading on the Table II point (§VI), the overload shell width (§II:
// memory and redundant work against refresh frequency), and the spectral
// filter against bare PM (§II, eq. 5; its accuracy gain is pinned by
// TestFilterReducesAnisotropy, its run-time cost should be nil).
func ablateExp() error {
	fmt.Println("Ablations: leaf size, solver backend, threads, overload width, spectral filter")
	tree := func(ranks, np int) bench.FullOptions {
		return bench.FullOptions{Ranks: ranks, NpPerDim: np, Solver: core.PPTreePM, Steps: 1, SubCycles: 3}
	}
	var runs []ablation
	for _, leaf := range []int{8, 24, 64, 128, 256} {
		o := tree(2, 24)
		o.LeafSize = leaf
		runs = append(runs, ablation{"leaf", fmt.Sprint(leaf), o, nil})
	}
	for _, solver := range []core.SolverKind{core.PPTreePM, core.P3M, core.PMOnly} {
		o := tree(2, 24)
		o.Solver = solver
		runs = append(runs, ablation{"solver", solver.String(), o, nil})
	}
	for _, threads := range []int{1, 2, 4} {
		o := tree(4, 26)
		o.Threads = threads
		runs = append(runs, ablation{"threads", fmt.Sprint(threads), o, nil})
	}
	for _, ov := range []float64{3.5, 4, 5, 6} {
		runs = append(runs, ablation{"overload", fmt.Sprint(ov), tree(4, 24),
			func(c *core.Config) { c.Overload = ov }})
	}
	for _, bare := range []bool{false, true} {
		variant := "filter"
		if bare {
			variant = "bare"
		}
		o := bench.FullOptions{Ranks: 2, NpPerDim: 24, Solver: core.PMOnly, Steps: 1, SubCycles: 2}
		runs = append(runs, ablation{"filter", variant, o,
			func(c *core.Config) { c.DisableFilter = bare }})
	}
	fmt.Printf("%-10s %-10s %-14s %-14s %-10s %s\n",
		"Sweep", "Variant", "Time/Sub [s]", "Interactions", "Overload", "MB/rank")
	for _, a := range runs {
		r, err := bench.RunFullWithConfig(a.opts, a.mod)
		if err != nil {
			return fmt.Errorf("%s %s: %w", a.sweep, a.variant, err)
		}
		fmt.Printf("%-10s %-10s %-14.4f %-14d %-10.2f %.1f\n",
			a.sweep, a.variant, r.SecPerSub, r.Interactions, r.OverloadFrac, r.MemMBPerRank)
	}
	return nil
}
