package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"hacc/internal/analysis"
	"hacc/internal/core"
	"hacc/internal/cosmology"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/obs"
)

// FullResult is one row of the Table II / Table III reproductions.
type FullResult struct {
	Ranks        int
	NpTotal      int64
	Geometry     [3]int
	Substeps     int64
	WallSec      float64 // total stepping wall-clock
	SecPerSub    float64 // per substep
	NsPerSubPart float64 // time/substep/particle in ns (paper column)
	RankTime     float64 // Ranks × time/substep/particle in ns (the paper's
	// "Cores×Time/Substep" column: constant under ideal weak scaling)
	MemMBPerRank float64
	Interactions int64
	Flops        float64
	HostGFlops   float64
	BGQTF        float64 // modeled sustained TFlops at paper efficiency
	BGQPct       float64
	Phases       []obs.PhaseFraction
	OverloadFrac float64
	CommPostSec  float64 // pack+post share of communication (overlappable)
	CommWaitSec  float64 // exposed blocking wait share

	// Per-rank step-time imbalance: max/mean/min across ranks of each
	// rank's busy time (wall minus exposed comm wait — a starved rank shows
	// up as low busy time, not high wait). Max/Mean is the load-imbalance
	// factor the balancer drives toward 1.
	BusyMaxSec  float64
	BusyMeanSec float64
	BusyMinSec  float64
	// Balancer and stealing diagnostics (global counters).
	Rebalances   int64
	StolenLeaves int64
	// WorkImbalance is max/mean across ranks of the deterministic per-rank
	// short-range work (kernel interactions + tree-walk node visits) — the
	// machine-noise-free view of the same imbalance BusyMaxSec/BusyMeanSec
	// measures in wall-clock.
	WorkImbalance float64

	// Wire send→match latency, merged collectively across ranks from the
	// per-frame header timestamps (zero everywhere on inproc-only runs,
	// where no frame crosses a wire).
	WireLatCount int64
	WireLatP50Ns int64
	WireLatP99Ns int64
}

// FullOptions configures a full-code scaling point.
type FullOptions struct {
	Ranks     int
	NpPerDim  int // particles per dimension (grid matches)
	NgPerDim  int
	Steps     int
	SubCycles int
	Solver    core.SolverKind
	ZInit     float64
	ZFinal    float64
	BoxMpc    float64
	Threads   int
	LeafSize  int
	Seed      uint64
}

func (o *FullOptions) setDefaults() {
	if o.Steps == 0 {
		o.Steps = 2
	}
	if o.SubCycles == 0 {
		o.SubCycles = 3
	}
	if o.ZInit == 0 {
		o.ZInit = 24
	}
	if o.ZFinal == 0 {
		o.ZFinal = 10
	}
	if o.NgPerDim == 0 {
		o.NgPerDim = o.NpPerDim
	}
	if o.BoxMpc == 0 {
		o.BoxMpc = 8 * float64(o.NgPerDim) // ~8 Mpc cells: mildly clustered
	}
	if o.Seed == 0 {
		o.Seed = 77
	}
}

// RunFull executes a full-code benchmark point and gathers the paper-style
// metrics.
func RunFull(o FullOptions) (FullResult, error) {
	return RunFullWithConfig(o, nil)
}

// runFullCfg runs a prepared config and gathers the metrics.
func runFullCfg(o FullOptions, cfg core.Config) (FullResult, error) {
	var res FullResult
	res.Ranks = o.Ranks
	err := mpi.Run(o.Ranks, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		mpi.Barrier(c)
		start := time.Now()
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		mpi.Barrier(c)
		wall := time.Since(start).Seconds()
		phases := s.Timers.Sums()
		busy := mpi.AllGather(c, []float64{phases.Busy().Seconds()})
		work := mpi.AllGather(c, []float64{float64(s.Counters.KernelInteractions + s.Counters.WalkNodes)})
		mem := mpi.AllReduce(c, []float64{s.MemoryMB()}, mpi.MaxF64)
		ovf := mpi.AllReduce(c, []float64{s.Dom.OverloadFraction()}, mpi.MaxF64)
		gc := s.GlobalCounters()
		nGlobal := s.Dom.NGlobal()       // collective: before the rank-0 guard
		lat := mpi.WireLatencySummary(c) // collective: before the rank-0 guard
		if c.Rank() != 0 {
			return
		}
		res.NpTotal = nGlobal
		res.Geometry = s.Dec.Dims
		res.Substeps = s.SubstepsDone
		res.WallSec = wall
		if s.SubstepsDone > 0 {
			res.SecPerSub = wall / float64(s.SubstepsDone)
		}
		if res.NpTotal > 0 {
			res.NsPerSubPart = res.SecPerSub * 1e9 / float64(res.NpTotal)
		}
		res.RankTime = float64(o.Ranks) * res.NsPerSubPart
		res.MemMBPerRank = mem[0]
		res.Interactions = gc.KernelInteractions
		res.Flops = gc.Flops()
		res.HostGFlops = res.Flops / wall / 1e9
		res.BGQTF, res.BGQPct = machine.ProjectedBGQ(o.Ranks)
		res.Phases = phases.Fractions()
		res.OverloadFrac = ovf[0]
		res.CommPostSec = phases[obs.SpanCommPost].Seconds()
		res.CommWaitSec = phases[obs.SpanCommWait].Seconds()
		res.BusyMaxSec, res.BusyMinSec = busy[0], busy[0]
		for _, b := range busy {
			res.BusyMaxSec = math.Max(res.BusyMaxSec, b)
			res.BusyMinSec = math.Min(res.BusyMinSec, b)
			res.BusyMeanSec += b
		}
		res.BusyMeanSec /= float64(len(busy))
		res.Rebalances = gc.Rebalances
		res.StolenLeaves = gc.StolenLeaves
		var wmax, wsum float64
		for _, v := range work {
			wmax = math.Max(wmax, v)
			wsum += v
		}
		if wsum > 0 {
			res.WorkImbalance = wmax / (wsum / float64(len(work)))
		}
		res.WireLatCount = lat.Count
		res.WireLatP50Ns = lat.P50Ns
		res.WireLatP99Ns = lat.P99Ns
	})
	return res, err
}

// PrintFullTable writes Table II/III-style rows.
func PrintFullTable(w io.Writer, rows []FullResult, memBudgetMB float64) {
	fmt.Fprintf(w, "%-7s %-12s %-10s %-14s %-16s %-14s %-10s %-13s %-11s",
		"Ranks", "Np", "Geometry", "Time/Sub [s]", "T/Sub/Part [ns]", "R*T/S/P [ns]", "MB/rank", "host GF/s", "model TF")
	if memBudgetMB > 0 {
		fmt.Fprintf(w, " %-8s", "Mem%")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		geom := fmt.Sprintf("%dx%dx%d", r.Geometry[0], r.Geometry[1], r.Geometry[2])
		fmt.Fprintf(w, "%-7d %-12d %-10s %-14s %-16s %-14s %-10.1f %-13s %-11.1f",
			r.Ranks, r.NpTotal, geom, orDash(r.SecPerSub, "%.4f"), orDash(r.NsPerSubPart, "%.1f"),
			orDash(r.RankTime, "%.1f"), r.MemMBPerRank, orDash(r.HostGFlops, "%.2f"), r.BGQTF)
		if memBudgetMB > 0 {
			fmt.Fprintf(w, " %-8.1f", 100*r.MemMBPerRank/memBudgetMB)
		}
		fmt.Fprintln(w)
	}
}

// orDash formats v with format, or returns "--" when v is zero or not
// finite — the shape a degenerate run (zero substeps, zero interactions,
// zero busy time) leaves behind. Reports never print NaN/Inf.
func orDash(v float64, format string) string {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return "--"
	}
	return fmt.Sprintf(format, v)
}

// PrintPhaseSplit writes the §III time-split report for one run, including
// the posted-vs-exposed communication split of the overlapped exchange and
// the merged wire send→match latency histogram summary.
func PrintPhaseSplit(w io.Writer, r FullResult) {
	fmt.Fprintf(w, "phase split (paper: ~80%% kernel, 10%% walk, 5%% FFT, 5%% rest):\n")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-10s %6.1f%%  (%.3fs)\n", p.Name, 100*p.Fraction, p.Seconds)
	}
	if tot := r.CommPostSec + r.CommWaitSec; tot > 0 {
		fmt.Fprintf(w, "comm split: %.3fs pack+post vs %.3fs exposed wait (%.0f%% of comm time is exposed wait; overlap shrinks only the wait share)\n",
			r.CommPostSec, r.CommWaitSec, 100*r.CommWaitSec/tot)
	}
	if r.BusyMeanSec > 0 {
		fmt.Fprintf(w, "rank busy max/mean/min: %.3fs / %.3fs / %.3fs  (imbalance %s; rebalances %d, stolen leaves %d)\n",
			r.BusyMaxSec, r.BusyMeanSec, r.BusyMinSec, orDash(r.BusyMaxSec/r.BusyMeanSec, "%.2f"),
			r.Rebalances, r.StolenLeaves)
	} else {
		fmt.Fprintf(w, "rank busy max/mean/min: -- / -- / --  (imbalance --; rebalances %d, stolen leaves %d)\n",
			r.Rebalances, r.StolenLeaves)
	}
	if r.WireLatCount > 0 {
		fmt.Fprintf(w, "wire latency: %d frames, p50 %s, p99 %s (send-stamp to match, merged across ranks)\n",
			r.WireLatCount, fmtNs(r.WireLatP50Ns), fmtNs(r.WireLatP99Ns))
	} else {
		fmt.Fprintf(w, "wire latency: -- (no wire frames; inproc transport)\n")
	}
}

// fmtNs renders a nanosecond latency with a human-scale unit.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// EvolutionResult captures the Fig. 9 experiment: per-step wall-clock and
// clustering measures across the run.
type EvolutionResult struct {
	Steps     []int
	A         []float64
	StepSec   []float64
	DeltaMax  []float64
	DeltaVar  []float64
	FirstSec  float64
	LastSec   float64
	WallRatio float64 // last/first step cost (paper: "does not change much")
}

// RunEvolution runs a small full simulation and records per-step timing and
// density statistics.
func RunEvolution(ranks, np int, boxMpc float64, steps int, zInit, zFinal float64) (EvolutionResult, error) {
	var res EvolutionResult
	cfg := core.Config{
		NGrid: np, NParticles: np, BoxMpc: boxMpc,
		ZInit: zInit, ZFinal: zFinal, Steps: steps, SubCycles: 3,
		Solver: core.PPTreePM, Seed: 5,
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < steps; i++ {
			mpi.Barrier(c)
			t0 := time.Now()
			if err := s.Step(); err != nil {
				panic(err)
			}
			mpi.Barrier(c)
			dt := time.Since(t0).Seconds()
			stats := s.DensityStats()
			if c.Rank() == 0 {
				res.Steps = append(res.Steps, i+1)
				res.A = append(res.A, s.A)
				res.StepSec = append(res.StepSec, dt)
				res.DeltaMax = append(res.DeltaMax, stats.Max)
				res.DeltaVar = append(res.DeltaVar, stats.Variance)
			}
		}
	})
	if err != nil {
		return res, err
	}
	res.FirstSec = res.StepSec[0]
	res.LastSec = res.StepSec[len(res.StepSec)-1]
	res.WallRatio = res.LastSec / res.FirstSec
	return res, nil
}

// PrintEvolution writes the Fig. 9 experiment report.
func PrintEvolution(w io.Writer, r EvolutionResult) {
	fmt.Fprintf(w, "%-6s %-8s %-8s %-12s %-12s %s\n", "step", "a", "z", "wall [s]", "max(δ)", "var(δ)")
	for i := range r.Steps {
		z := 1/r.A[i] - 1
		fmt.Fprintf(w, "%-6d %-8.4f %-8.2f %-12.4f %-12.1f %.4f\n",
			r.Steps[i], r.A[i], z, r.StepSec[i], r.DeltaMax[i], r.DeltaVar[i])
	}
	fmt.Fprintf(w, "wall-clock last/first step: %.2f (paper: ~constant despite δ growing ~10^5)\n", r.WallRatio)
}

// PowerEvolutionResult captures the Fig. 10 experiment.
type PowerEvolutionResult struct {
	Redshifts []float64
	Spectra   []*analysis.PowerSpectrum
	Linear    [][]float64 // D²(a)·P_lin at the measured k of each epoch
}

// RunPowerEvolution evolves a box and measures P(k) at the requested
// redshifts (nearest step boundary at or below each).
func RunPowerEvolution(ranks, np int, boxMpc float64, steps int, zs []float64) (PowerEvolutionResult, error) {
	var res PowerEvolutionResult
	cfg := core.Config{
		NGrid: np, NParticles: np, BoxMpc: boxMpc,
		ZInit: 24, ZFinal: 0, Steps: steps, SubCycles: 3,
		Solver: core.PPTreePM, Seed: 21, FixedAmp: true,
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		next := 0
		record := func() {
			if next >= len(zs) || s.Z() > zs[next]+1e-9 {
				return
			}
			ps := s.PowerSpectrum(14, true)
			if c.Rank() == 0 {
				res.Redshifts = append(res.Redshifts, s.Z())
				res.Spectra = append(res.Spectra, ps)
				d := s.LP.Gfac.D(s.A)
				lin := make([]float64, len(ps.K))
				for i, k := range ps.K {
					lin[i] = d * d * s.LP.P(k)
				}
				res.Linear = append(res.Linear, lin)
			}
			next++
		}
		record()
		for s.StepIndex < steps {
			if err := s.Step(); err != nil {
				panic(err)
			}
			record()
		}
	})
	return res, err
}

// PrintPowerEvolution writes Fig. 10-style series: log10 P(k) per epoch.
func PrintPowerEvolution(w io.Writer, r PowerEvolutionResult) {
	if len(r.Spectra) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s", "log10(k)")
	for _, z := range r.Redshifts {
		fmt.Fprintf(w, " z=%-7.2f lin=%-6s", z, "")
	}
	fmt.Fprintln(w)
	n := len(r.Spectra[0].K)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-10.3f", math.Log10(r.Spectra[0].K[i]))
		for e := range r.Spectra {
			p := r.Spectra[e].P[i]
			l := r.Linear[e][i]
			if p <= 0 {
				fmt.Fprintf(w, " %-9s %-9s", "-", "-")
				continue
			}
			fmt.Fprintf(w, " %-9.3f %-9.3f", math.Log10(p), math.Log10(l))
		}
		fmt.Fprintln(w)
	}
}

// HaloResult captures the Fig. 11 / §V mass-function experiment.
type HaloResult struct {
	NHalos      int
	LargestN    int
	NSubhalos   int // in the most massive halo
	MassBins    []float64
	DnDlnM      []float64
	TheoryST    []float64
	TheoryPS    []float64
	SubhaloSize []int
}

// RunHalos evolves a box to zFinal and runs the FOF + sub-halo analysis,
// comparing the mass function to Sheth-Tormen and Press-Schechter.
func RunHalos(ranks, np int, boxMpc float64, steps int, zFinal float64) (HaloResult, error) {
	var res HaloResult
	cfg := core.Config{
		NGrid: np, NParticles: np, BoxMpc: boxMpc,
		ZInit: 24, ZFinal: zFinal, Steps: steps, SubCycles: 3,
		Solver: core.PPTreePM, Seed: 31,
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil {
			panic(err)
		}
		halos := s.FindHalos(0.2, 10)
		nh := mpi.AllReduce(c, []int{len(halos)}, mpi.SumInt)
		largest := 0
		for _, h := range halos {
			if h.N > largest {
				largest = h.N
			}
		}
		lg := mpi.AllReduce(c, []int{largest}, mpi.MaxInt)
		vol := boxMpc * boxMpc * boxMpc
		mMin := 9 * s.ParticleMassMsun
		mMax := 3000 * s.ParticleMassMsun
		mb, dn := analysis.MassFunctionBins(c, halos, vol, mMin, mMax, 8)

		// Sub-halos of this rank's largest halo.
		subSizes := []int{}
		if len(halos) > 0 && halos[0].N == lg[0] {
			na := s.Dom.Active.Len()
			x := append(append([]float32{}, s.Dom.Active.X...), s.Dom.Passive.X...)
			y := append(append([]float32{}, s.Dom.Active.Y...), s.Dom.Passive.Y...)
			z := append(append([]float32{}, s.Dom.Active.Z...), s.Dom.Passive.Z...)
			_ = na
			spacing := float64(np) / float64(np) // lattice spacing in cells
			subs := analysis.FindSubhalos(x, y, z, halos[0].Members,
				analysis.SubhaloOptions{LinkRadius: 0.2 * spacing, MinN: 10})
			for _, sh := range subs {
				subSizes = append(subSizes, sh.N)
			}
		}
		allSub := mpi.Gather(c, 0, subSizes)
		if c.Rank() != 0 {
			return
		}
		res.NHalos = nh[0]
		res.LargestN = lg[0]
		res.MassBins = mb
		res.DnDlnM = dn
		res.SubhaloSize = allSub
		res.NSubhalos = len(allSub)
		mf := cosmology.NewMassFunction(s.LP)
		a := s.A
		for _, m := range mb {
			res.TheoryST = append(res.TheoryST, mf.DnDlnM(m, a, cosmology.ShethTormen))
			res.TheoryPS = append(res.TheoryPS, mf.DnDlnM(m, a, cosmology.PressSchechter))
		}
	})
	return res, err
}

// PrintHalos writes the Fig. 11 report.
func PrintHalos(w io.Writer, r HaloResult) {
	fmt.Fprintf(w, "halos: %d   largest: %d particles   sub-halos in largest: %d sizes=%v\n",
		r.NHalos, r.LargestN, r.NSubhalos, r.SubhaloSize)
	fmt.Fprintf(w, "%-12s %-14s %-14s %-14s\n", "M [Msun/h]", "dn/dlnM sim", "Sheth-Tormen", "Press-Schechter")
	for i := range r.MassBins {
		fmt.Fprintf(w, "%-12.2e %-14.3e %-14.3e %-14.3e\n",
			r.MassBins[i], r.DnDlnM[i], r.TheoryST[i], r.TheoryPS[i])
	}
}

// RunFullWithConfig is RunFull with a config hook for ablations (overload
// width, filter toggles, …) applied after the defaults.
func RunFullWithConfig(o FullOptions, mod func(*core.Config)) (FullResult, error) {
	o.setDefaults()
	cfg := core.Config{
		NGrid: o.NgPerDim, NParticles: o.NpPerDim, BoxMpc: o.BoxMpc,
		ZInit: o.ZInit, ZFinal: o.ZFinal, Steps: o.Steps, SubCycles: o.SubCycles,
		Solver: o.Solver, Seed: o.Seed, Threads: o.Threads, LeafSize: o.LeafSize,
	}
	if mod != nil {
		mod(&cfg)
	}
	return runFullCfg(o, cfg)
}
