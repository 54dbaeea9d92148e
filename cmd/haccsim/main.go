// Command haccsim runs a full HACC simulation from command-line flags,
// reporting per-step progress, the final power spectrum, the halo mass
// function, and the performance summary; optionally it writes particle
// snapshots and cadenced checkpoints, and resumes interrupted runs.
//
// Example:
//
//	haccsim -ranks 8 -np 64 -box 250 -zinit 50 -zfinal 0 -steps 24 \
//	        -solver tree -snap final.hacc -ckpt-dir ckpt -ckpt-every 4
//
// An interrupted run resumes from its newest checkpoint (the physics
// configuration is stored inside the checkpoint; only output/threading
// flags may be combined with -restart):
//
//	haccsim -restart ckpt
//
// Every run is supervised, by one recovery loop whether its ranks are
// goroutines in this process (-ranks) or OS processes (-par): a crash, a
// detected hang (-op-timeout, -deadline) or a corrupt checkpoint tears the
// world down and is classified. With -max-restarts N (default 0, no retry)
// the world then quarantines any damaged checkpoint and resumes from the
// newest restorable one with exponential backoff, up to N times. -fault arms
// the deterministic fault injector, which is how the recovery path is
// exercised on demand:
//
//	haccsim -np 32 -steps 8 -ckpt-dir ckpt -ckpt-every 2 \
//	        -max-restarts 3 -fault "kill rank 2 at step 5"
//
// Late-time load balancing: -rebalance arms cost-driven domain rebalancing
// (slab cuts follow the measured work distribution) and -ic halo generates
// the deliberately clustered stress workload. Within a rank, tree leaves
// are handed to the -threads workers from one shared cursor, so the result
// is bitwise independent of -threads:
//
//	haccsim -ranks 8 -np 24 -box 192 -zinit 3 -zfinal 1 -steps 6 \
//	        -ic halo -rebalance 1.1
//
// Multi-process execution: -par N spawns N OS processes, one rank each,
// connected through the mpi wire transport (-transport tcp|unix|auto; rank 0
// doubles as the rendezvous point). The parent re-execs this binary as the
// rank processes and supervises them through the exit-code protocol: a dead
// or wedged rank tears the world down and, with checkpoints configured and
// -max-restarts, every rank restarts from the newest restorable one:
//
//	haccsim -par 4 -transport tcp -np 32 -steps 8 \
//	        -ckpt-dir ckpt -ckpt-every 2 -max-restarts 3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hacc/internal/core"
	"hacc/internal/cosmology"
	"hacc/internal/fault"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/shortrange"
)

// physicsFlags are rejected alongside -restart: the checkpoint itself
// defines the physics, and core.Restore enforces the same rule through the
// config fingerprint — this check just fails earlier, with a clearer
// message, before a world is spun up.
var physicsFlags = map[string]bool{
	"np": true, "ng": true, "box": true, "zinit": true, "zfinal": true,
	"steps": true, "nc": true, "seed": true, "solver": true,
	"transfer": true, "fixed": true, "ic": true,
	"rebalance": true, "rebalance-min-steps": true,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("haccsim: ")
	var (
		ranks       = flag.Int("ranks", 4, "simulated MPI ranks")
		np          = flag.Int("np", 32, "particles per dimension")
		ng          = flag.Int("ng", 0, "PM grid per dimension (default: np)")
		box         = flag.Float64("box", 150, "box side in Mpc/h")
		zInit       = flag.Float64("zinit", 24, "initial redshift")
		zFinal      = flag.Float64("zfinal", 0, "final redshift")
		steps       = flag.Int("steps", 12, "full long-range steps")
		nc          = flag.Int("nc", 5, "short-range sub-cycles per step")
		seed        = flag.Uint64("seed", 42, "random seed")
		solver      = flag.String("solver", "tree", "short-range solver: tree|p3m|pm")
		transfer    = flag.String("transfer", "eh-nowiggle", "transfer function: eh|eh-nowiggle|bbks")
		threads     = flag.Int("threads", 2, "kernel threads per rank")
		fixed       = flag.Bool("fixed", false, "fixed-amplitude initial conditions")
		snapPath    = flag.String("snap", "", "write a final snapshot to this path")
		pkBins      = flag.Int("pkbins", 16, "power spectrum bins")
		ckptDir     = flag.String("ckpt-dir", "", "write cadenced checkpoints under this directory")
		ckptEvery   = flag.Int("ckpt-every", 0, "checkpoint after every Nth full step (requires -ckpt-dir)")
		restart     = flag.String("restart", "", "resume from a checkpoint (a step directory or a -ckpt-dir root)")
		maxRestarts = flag.Int("max-restarts", 0, "after a failure, restart from the newest checkpoint up to N times (0 = no retry)")
		opTimeout   = flag.Duration("op-timeout", 0, "hang detection: per-operation timeout (0 = off)")
		deadline    = flag.Duration("deadline", 0, "wall-clock bound per attempt; elapsing classifies as a hang (0 = none)")
		faultSpec   = flag.String("fault", "", `arm the fault injector, e.g. "kill rank 2 at step 3; fail every 5th fsync"`)
		icKind      = flag.String("ic", "zeldovich", "initial conditions: zeldovich|halo (clustered load-balancing stress)")
		rebalance   = flag.Float64("rebalance", 0, "cost-driven rebalancing: smoothed max/mean work threshold > 1 (0 = static decomposition)")
		rebMinSteps = flag.Int("rebalance-min-steps", 0, "minimum steps between rebalances (default 2)")
		par         = flag.Int("par", 0, "spawn N OS processes, one wire-transport rank each (0 = in-process goroutine ranks)")
		transport   = flag.String("transport", "auto", "wire socket family under -par: tcp|unix|auto")
		traceDir    = flag.String("trace", "", "write per-rank Chrome trace timelines and JSONL run journals under this directory")
		debugAddr   = flag.String("debug-addr", "", `serve pprof, metrics, and the journal tail over HTTP on rank 0 (e.g. "127.0.0.1:6060")`)
	)
	flag.Parse()
	if err := validateFlags(*ranks, *ng, *nc, *threads, *pkBins, *solver, *restart,
		*maxRestarts, *opTimeout, *deadline, *faultSpec, *par, *transport); err != nil {
		log.Fatal(err)
	}

	// explicit records which flags the user actually set, so a restart
	// overrides only what was asked for and inherits the rest from the
	// checkpointed config.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var kind core.SolverKind
	switch *solver {
	case "tree":
		kind = core.PPTreePM
	case "p3m":
		kind = core.P3M
	case "pm":
		kind = core.PMOnly
	}

	var stepDir string
	var cfg core.Config
	if *restart != "" {
		dir, err := core.ResolveCheckpoint(*restart)
		if err != nil {
			log.Fatalf("-restart %s: %v", *restart, err)
		}
		info, err := core.ReadCheckpointInfo(dir)
		if err != nil {
			log.Fatalf("-restart %s: %v", *restart, err)
		}
		stepDir = dir
		cfg = info.Cfg
		// Unless the user explicitly asked for a different world size,
		// resume at the writing rank count — that is the bitwise-exact
		// restart path; a changed -ranks goes through geometric
		// reassignment instead.
		if !explicit["ranks"] {
			*ranks = info.NRanks
		}
		if explicit["ckpt-dir"] || explicit["ckpt-every"] {
			cfg.CheckpointDir = *ckptDir
			cfg.CheckpointEvery = *ckptEvery
		}
		// Tracing is output-side, never fingerprinted: a restart may arm it
		// even though the physics comes from the checkpoint.
		if explicit["trace"] {
			cfg.TraceDir = *traceDir
		}
		log.Printf("resuming from %s: step %d/%d, a=%.4f, %d particles (written at %d ranks)",
			dir, info.StepIndex, cfg.Steps, info.A, info.NGlobal, info.NRanks)
	} else {
		cfg = core.Config{
			NGrid: orInt(*ng, *np), NParticles: *np, BoxMpc: *box,
			Cosmo: cosmology.Default(), Transfer: *transfer,
			ZInit: *zInit, ZFinal: *zFinal, Steps: *steps, SubCycles: *nc,
			Seed: *seed, FixedAmp: *fixed, Solver: kind, Threads: *threads,
			CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, ICKind: *icKind,
			RebalanceThreshold: *rebalance, RebalanceMinSteps: *rebMinSteps,
			TraceDir: *traceDir,
		}
	}
	// Config.Validate is the one check of the physics and output knobs; run
	// it here so a bad config fails before any world or process is spawned.
	if err := cfg.WithDefaults().Validate(); err != nil {
		log.Fatal(err)
	}
	mutate := func(c *core.Config) {
		// Only explicitly-set neutral knobs override the checkpoint.
		if explicit["threads"] {
			c.Threads = *threads
		}
		if explicit["ckpt-dir"] || explicit["ckpt-every"] {
			c.CheckpointDir = *ckptDir
			c.CheckpointEvery = *ckptEvery
		}
		if explicit["trace"] {
			c.TraceDir = *traceDir
		}
	}

	start := time.Now()
	body := func(s *core.Simulation) error { return drive(s, *pkBins, *snapPath, *debugAddr, start) }
	child := mpi.WireChild()
	// Faults fire where the physics runs: in-process ranks, or a rank process
	// on its first attempt (a resumed attempt must run clean or recovery
	// would loop forever). A -par parent only forwards the spec through argv.
	if *faultSpec != "" && (child && os.Getenv(core.EnvResume) == "" || !child && *par == 0) {
		fault.Arm(fault.MustParse(*faultSpec))
		defer fault.Disarm()
		log.Printf("fault injector armed: %s", *faultSpec)
	}
	if child {
		// This process is one rank of a wire world spawned by -par (or
		// haccmux).
		core.RunRankProcess(cfg, stepDir, mutate, *opTimeout, body)
		return // unreachable: RunRankProcess exits
	}

	// Everything else runs under the supervisor, with goroutine ranks in this
	// process or -par rank processes re-execing this binary with the
	// identical command line. -max-restarts 0 supervises without retrying.
	restarts := *maxRestarts
	if restarts == 0 {
		restarts = -1
	}
	var rep *core.Report
	var err error
	if *par > 0 {
		exe, xerr := os.Executable()
		if xerr != nil {
			log.Fatalf("-par: cannot re-exec: %v", xerr)
		}
		rep, err = core.SuperviseProcs(core.ProcOptions{
			Ranks:          *par,
			Transport:      *transport,
			Command:        append([]string{exe}, os.Args[1:]...),
			MaxRestarts:    restarts,
			AttemptTimeout: *deadline,
			CheckpointRoot: cfg.CheckpointDir,
			TraceDir:       cfg.TraceDir,
			ResumeFrom:     stepDir,
			Log:            func(line string) { log.Print(line) },
		})
	} else {
		rep, err = core.RunSupervised(cfg, core.SupervisorOptions{
			Ranks:       *ranks,
			MaxRestarts: restarts,
			OpTimeout:   *opTimeout,
			Deadline:    *deadline,
			ResumeFrom:  stepDir,
			Mutate:      mutate,
			Log:         func(line string) { log.Print(line) },
		}, body)
	}
	for _, inc := range rep.Incidents {
		log.Printf("incident: attempt %d failed (%s); resumed from %q after %v",
			inc.Attempt, inc.Class, inc.Resume, inc.Backoff)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rep.Restarts > 0 {
		log.Printf("run completed after %d restart(s)", rep.Restarts)
	}
}

// drive runs the remaining schedule on one rank's Simulation and reports
// the final science and performance summary. It is the body every launch
// path runs, so a restarted attempt replays exactly the same code. With
// debugAddr set, rank 0 first serves pprof, the world's live metrics and,
// when tracing armed a journal, its tail; EnableDebug is idempotent, so a
// supervised in-process restart keeps the first listener.
func drive(s *core.Simulation, pkBins int, snapPath, debugAddr string, start time.Time) error {
	c := s.Comm
	nsteps := s.Cfg.Steps
	if debugAddr != "" && c.Rank() == 0 {
		obs.SetDebugRegistry(c.World().Metrics())
		if _, err := obs.EnableDebug(debugAddr); err != nil {
			return fmt.Errorf("-debug-addr %s: %w", debugAddr, err)
		}
	}
	if c.Rank() == 0 {
		log.Printf("%s: %d^3 particles, %d^3 grid, %.0f Mpc/h box, %d ranks, z=%.1f→%.1f in %d steps ×%d sub-cycles",
			s.Cfg.Solver, s.Cfg.NParticles, s.Cfg.NGrid, s.Cfg.BoxMpc, c.Size(),
			s.Cfg.ZInit, s.Cfg.ZFinal, nsteps, s.Cfg.SubCycles)
		log.Printf("particle mass %.3e Msun/h", s.ParticleMassMsun)
		if s.Cfg.Solver != core.PMOnly {
			log.Printf("short-range kernel: %s", shortrange.KernelISA())
		}
	}
	err := s.Run(func(step int, a float64) {
		if c.Rank() == 0 {
			log.Printf("step %3d/%d  a=%.4f  z=%6.2f", step, nsteps, a, 1/a-1)
		}
	})
	if err != nil {
		return err
	}

	ps := s.PowerSpectrum(pkBins, true)
	halos := s.FindHalos(0.2, 10)
	nh := mpi.AllReduce(c, []int{len(halos)}, mpi.SumInt)
	stats := s.DensityStats()
	gc := s.GlobalCounters()
	lat := mpi.WireLatencySummary(c) // collective: before the rank-0 guard
	if c.Rank() == 0 {
		fmt.Printf("\nfinal power spectrum (z=%.2f):\n%-10s %-12s %-12s %s\n",
			s.Z(), "k [h/Mpc]", "P(k)", "P_lin(k)", "modes")
		d := s.LP.Gfac.D(s.A)
		for i, k := range ps.K {
			fmt.Printf("%-10.4f %-12.4e %-12.4e %d\n", k, ps.P[i], d*d*s.LP.P(k), ps.NModes[i])
		}
		fmt.Printf("\nhalos (FOF b=0.2, ≥10 particles): %d\n", nh[0])
		fmt.Printf("density contrast: max=%.1f var=%.3f\n", stats.Max, stats.Variance)
		fmt.Printf("\nperformance: %.2e kernel interactions, %.2e model flops, wall %.1fs\n",
			float64(gc.KernelInteractions), gc.Flops(), time.Since(start).Seconds())
		// One consistent counters block every run, zero or not, so scripts
		// and eyeballs always find the same lines in the same place.
		fmt.Printf("resilience: %d restarts, %d checkpoint retries, %d quarantined\n",
			gc.Restarts, gc.CkptRetries, gc.CkptQuarantined)
		fmt.Printf("balance: %d rebalances, final max/mean %.2f\n",
			gc.Rebalances, s.Imbalance())
		if gc.MsgsSent > 0 {
			fmt.Printf("communication: %d msgs, %.1f MB payload", gc.MsgsSent, float64(gc.BytesSent)/(1<<20))
			if gc.WireMsgs > 0 {
				fmt.Printf(" (%d over the wire: %.1f MB + %.1f MB framing)",
					gc.WireMsgs, float64(gc.WireBytes)/(1<<20),
					float64(gc.WireMsgs*mpi.FrameHeaderSize)/(1<<20))
			}
			fmt.Println()
		}
		if lat.Count > 0 {
			fmt.Printf("wire latency: %d frames, p50 %v, p99 %v (send-stamp to match)\n",
				lat.Count, time.Duration(lat.P50Ns), time.Duration(lat.P99Ns))
		}
		if dir := s.Cfg.TraceDir; dir != "" {
			log.Printf("trace timelines and journals under %s", dir)
		}
		for _, p := range s.Timers.Sums().Fractions() {
			fmt.Printf("  %-10s %5.1f%%\n", p.Name, 100*p.Fraction)
		}
	}
	if snapPath != "" {
		// Each rank appends its suffix; rank 0 writes the base path.
		path := snapPath
		if c.Rank() != 0 {
			path = fmt.Sprintf("%s.%d", snapPath, c.Rank())
		}
		if err := s.SaveSnapshot(path); err != nil {
			return err
		}
		if c.Rank() == 0 {
			log.Printf("snapshot written to %s (+ per-rank suffixes)", path)
		}
	}
	return nil
}

// validateFlags rejects the flag values only the command can judge — world
// size, threading, timeouts, spellings the config never sees, and flags
// that Config's defaults would silently replace — with one-line errors
// before any world is spun up. Everything the config carries is checked by
// Config.Validate in main.
func validateFlags(ranks, ng, nc, threads, pkBins int, solver, restart string,
	maxRestarts int, opTimeout, deadline time.Duration, faultSpec string,
	par int, transport string) error {
	switch {
	case ranks < 1:
		return fmt.Errorf("-ranks %d must be ≥1", ranks)
	case par < 0:
		return fmt.Errorf("-par %d must be ≥0 (0 = in-process ranks)", par)
	case threads < 1:
		return fmt.Errorf("-threads %d must be ≥1", threads)
	case pkBins < 1:
		return fmt.Errorf("-pkbins %d must be ≥1", pkBins)
	case maxRestarts < 0:
		return fmt.Errorf("-max-restarts %d must be ≥0 (0 = no retry)", maxRestarts)
	case opTimeout < 0 || deadline < 0:
		return fmt.Errorf("timeouts must be ≥0")
	}
	switch transport {
	case "tcp", "unix", "auto":
	default:
		return fmt.Errorf("unknown -transport %q (want tcp|unix|auto)", transport)
	}
	if faultSpec != "" {
		if _, err := fault.Parse(faultSpec); err != nil {
			return fmt.Errorf("-fault: %v", err)
		}
	}
	switch solver {
	case "tree", "p3m", "pm":
	default:
		return fmt.Errorf("unknown -solver %q (want tree|p3m|pm)", solver)
	}
	if restart != "" {
		var conflict string
		flag.Visit(func(f *flag.Flag) {
			if physicsFlags[f.Name] && conflict == "" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-restart takes the physics from the checkpoint; drop -%s (only output/threading flags may be combined)", conflict)
		}
		return nil // problem-definition flags are unused on restart
	}
	switch {
	case ng < 0:
		return fmt.Errorf("-ng %d must be ≥0 (0 means -np)", ng)
	case nc < 1:
		return fmt.Errorf("-nc %d must be ≥1", nc)
	}
	return nil
}

func orInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
