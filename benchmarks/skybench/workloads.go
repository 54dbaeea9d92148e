package main

import (
	"hacc/internal/core"
)

// ranks is the world size of every workload. Two ranks of one thread each
// fill the two cores this benchmark was sized on; see benchmarks/README.md.
const ranks = 2

// size is one set of problem sizes: the measured ones, or the small ones the
// smoke test runs.
type size struct {
	steps int
	// np overrides every workload's own particle count per dimension when
	// non-zero (the smoke sizes).
	np int
	// ckptEvery is survey-products' checkpoint cadence; its restart check
	// resumes from the checkpoint written restartGap steps before the end.
	ckptEvery, restartGap int
	// rounds of the product phase (one Analyze, Checkpoint, Restore and
	// read-back sweep each) in the untraced pass; the traced pass runs
	// tracedRepeats rounds, enough to place the spans.
	productRounds, tracedRepeats int
	setupBuilds                  int // timed core.New builds per run
	baselineSteps                int // 1-rank leg for par_eff_2r
	probeRepeats                 int
	// growthTol bounds the low-k P(k) growth from the initial conditions to
	// the final state against linear theory D²(a), a factor of several
	// hundred over z = 24 → 0. At the measured sizes the first of the 40
	// steps spans half an expansion factor, so growth lands at 0.8-1.0 of D²
	// depending on the seed (ten seeds seen); the ISSUE's 15% holds only at
	// its own NP. The gate is there to catch a wrong force, which moves the
	// ratio by orders of magnitude.
	growthTol float64
}

// The full sizes are the ISSUE's shrunk along NP (never below 40 steps) until
// one run of each workload, with set-up, products and checks, fits the
// driver's budget of about 30 s; the ISSUE's own sizes are 3-4 times that.
// halo-clustered stays at NP=20 because at NP=16 the balancer never fires.
var (
	fullSize = size{
		steps: 40, ckptEvery: 4, restartGap: 8,
		productRounds: 40, tracedRepeats: 3,
		setupBuilds: 5, baselineSteps: 10, probeRepeats: 11, growthTol: 0.40,
	}
	smokeSize = size{
		steps: 4, np: 16, ckptEvery: 2, restartGap: 2,
		productRounds: 3, tracedRepeats: 2,
		setupBuilds: 3, baselineSteps: 2, probeRepeats: 3, growthTol: 0.60,
	}
)

// workload is one named set of inputs. The program receives only cfg (with
// the seed and, where products are written, output directories filled in);
// nothing in it names the workload.
type workload struct {
	name string
	why  string
	wire bool // ranks joined by unix sockets instead of the goroutine mailbox
	// solves is how many times an untraced run solves before the -seconds
	// budget decides. pm-wire's solve is the shortest and, with socket reader
	// goroutines competing for the two cores, the noisiest from run to run:
	// it reports the median of three.
	solves int
	np     int // particles per dimension; the grid is np (2·np on pm-wire)
	cfg    func(np int, sz size) core.Config
}

// config returns the workload's configuration at the given sizes, without
// seed or output directories.
func (w workload) config(sz size) core.Config {
	if sz.np != 0 {
		return w.cfg(sz.np, sz)
	}
	return w.cfg(w.np, sz)
}

// workloads lists the four workloads in their fixed order. Names are fixed:
// later issues cite them.
//
// The Zel'dovich workloads use fixed-amplitude initial conditions (only the
// phases are random). In boxes this small a handful of long modes decides how
// clustered the final state is, and with it the pair count: free amplitudes
// spread solve_s by ±9% across seeds, fixed ones by ±5%.
var workloads = []workload{
	{
		name: "tree-uniform",
		why:  "PPTreePM on Zel'dovich ICs: the paper's BG/Q configuration, short-range kernel and RCB tree do nearly all the work",
		np:   20,
		cfg: func(np int, sz size) core.Config {
			return core.Config{
				Solver: core.PPTreePM, NParticles: np, NGrid: np, BoxMpc: 4 * float64(np),
				ZInit: 24, ZFinal: 0, Steps: sz.steps, SubCycles: 5, FixedAmp: true,
			}
		},
	},
	{
		name: "pm-wire",
		why:  "PMOnly over unix sockets: FFT, grid and the mpi wire path do the work and the short-range stack none, so kernel changes must not move it",
		wire: true, solves: 3,
		np: 32,
		cfg: func(np int, sz size) core.Config {
			return core.Config{
				Solver: core.PMOnly, NParticles: np, NGrid: 2 * np, BoxMpc: 4 * float64(np),
				ZInit: 24, ZFinal: 0, Steps: sz.steps, FixedAmp: true,
			}
		},
	},
	{
		name: "halo-clustered",
		why:  "PPTreePM on one deep halo with rebalancing armed: deep clustered leaves and unequal ranks, the late-time regime a uniform-tuned change can hurt",
		np:   20,
		cfg: func(np int, sz size) core.Config {
			return core.Config{
				Solver: core.PPTreePM, ICKind: "halo", NParticles: np, NGrid: np, BoxMpc: 4 * float64(np),
				ZInit: 3, ZFinal: 1, Steps: sz.steps, RebalanceThreshold: 1.1,
			}
		},
	},
	{
		name: "survey-products",
		why:  "P3M with analysis every step and checkpoints every fourth: FOF, P(k), gio and restart carry the cost, and reads run beside writes",
		np:   32,
		cfg: func(np int, sz size) core.Config {
			return core.Config{
				Solver: core.P3M, NParticles: np, NGrid: np, BoxMpc: 4 * float64(np),
				ZInit: 24, ZFinal: 0, Steps: sz.steps, SubCycles: 2, FixedAmp: true,
				AnalysisEvery: 1, CheckpointEvery: sz.ckptEvery,
			}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
