package core

import (
	"fmt"
	"math"
	"os"

	"hacc/internal/analysis"
	"hacc/internal/balance"
	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/fault"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/par"
	"hacc/internal/shortrange"
	"hacc/internal/snapshot"
	"hacc/internal/spectral"
	"hacc/internal/timestep"
	"hacc/internal/tree"
)

// Simulation is one rank's view of a running HACC simulation.
type Simulation struct {
	Cfg    Config
	Comm   *mpi.Comm
	Dec    *grid.Decomp
	Dom    *domain.Domain
	LP     *cosmology.LinearPower
	Kernel *shortrange.Kernel

	poisson *spectral.Poisson
	rho     *grid.Field
	acc     [3]*grid.Field
	rhoEx   *grid.Exchanger
	accEx   [3]*grid.Exchanger
	sched   timestep.Schedule

	// A is the current scale factor; StepIndex counts completed full steps.
	A         float64
	StepIndex int

	// Mass of one tracer particle in internal units (mean density 1).
	ParticleMass float64
	// ParticleMassMsun is the particle mass in Msun/h.
	ParticleMassMsun float64

	// Timers is the rank's phase clock (per-phase wall time, mirrored into
	// the trace ring when tracing is armed); Counters accumulates countable
	// work.
	Timers   *obs.Phases
	Counters machine.Counters

	// SubstepsDone counts executed short-range sub-cycles (for
	// time-per-substep reporting, matching the paper's metric).
	SubstepsDone int64

	// short, pairs, kern, kickBuf and pool persist across sub-cycles and
	// steps so the hot stepping path allocates nothing after the first
	// sub-cycle (§VI; the HACC architecture paper's persistent per-rank
	// solver state). short is the configured short-range index (tree or
	// chaining mesh, nil under PMOnly), pairs the force driver it embeds,
	// kern the bound kernel entry point, and pool this rank's fixed set of
	// worker goroutines.
	short   shortIndex
	pairs   *shortrange.Pairs
	kern    shortrange.RangeKernel
	kickBuf []float32
	pool    *par.Pool

	// refreshPending marks an overload refresh whose Begin has been posted
	// but whose End is deferred (overlapped stepping); fillOps holds the
	// in-flight acceleration-component ghost fills.
	refreshPending bool
	fillOps        [3]*grid.GhostOp

	// fof and power are the persistent in-situ analysis plans (built in New
	// when Cfg.AnalysisEvery > 0, or lazily by FindHalos/PowerSpectrum).
	// LastAnalysis holds the most recent in-situ product; its halo and
	// spectrum storage is plan-owned and valid until the next analysis
	// pass.
	fof          *analysis.Plan
	power        *analysis.Power
	LastAnalysis *InSituResult

	// ckpt is the persistent checkpoint machinery (collective gio writer,
	// immutable config JSON + fingerprint, reusable meta/var/counter
	// buffers), built on first Checkpoint.
	ckpt *ckptState

	// balancer drives cost-based domain rebalancing (nil when
	// Cfg.RebalanceThreshold is zero). lastInter/lastWalk record the counter
	// values at the previous cost observation, so each step contributes a
	// delta rather than a running total.
	balancer  *balance.Balancer
	lastInter int64
	lastWalk  int64

	// Observability (PR 10): journal is the per-rank JSONL run journal (nil
	// unless Cfg.TraceDir is set — every method is nil-safe), lastPhases
	// snapshots the phase clock at the previous step record so each record
	// carries per-phase deltas, and the gauges mirror step/a into the
	// world's metric registry for the live debug endpoint.
	journal    *obs.Journal
	lastPhases obs.PhaseSums
	gaugeStep  *obs.Gauge
	gaugeA     *obs.Gauge
}

// InSituResult is one in-situ analysis product: the rank's share of the
// halo catalog (each halo reported by exactly one rank) and the global
// power spectrum.
type InSituResult struct {
	Step     int
	A        float64
	Halos    []analysis.Halo
	Spectrum *analysis.PowerSpectrum
}

// shortIndex is a short-range solver as kickShort drives it: Build indexes
// the particles loaded into its driver, and the blocks feed the driver's
// force loop.
type shortIndex interface {
	shortrange.Blocks
	Build()
}

// New builds the simulation and generates initial conditions. Collective.
func New(c *mpi.Comm, cfg Config) (*Simulation, error) {
	s, err := newSimulation(c, cfg)
	if err != nil {
		return nil, err
	}
	// Initial conditions.
	if s.Cfg.ICKind == "halo" {
		// Deliberately clustered cold start: the load-balancing stress
		// workload (one deep Plummer halo, decomposition-independent).
		err = ic.GenerateClustered(c, s.Dec, ic.ClusteredOptions{
			Np:   s.Cfg.NParticles,
			Seed: s.Cfg.Seed,
		}, s.Dom)
	} else {
		err = ic.Generate(c, s.Dec, s.LP, ic.Options{
			Np:     s.Cfg.NParticles,
			BoxMpc: s.Cfg.BoxMpc,
			AInit:  s.sched.AInit,
			Seed:   s.Cfg.Seed,
			Fixed:  s.Cfg.FixedAmp,
		}, s.Dom)
	}
	if err != nil {
		return nil, err
	}
	s.Dom.Refresh()
	s.A = s.sched.AInit
	if s.Cfg.AnalysisEvery > 0 {
		s.ensureAnalysis(s.Cfg.AnalysisBins)
	}
	return s, nil
}

// newSimulation builds every persistent structure of a rank — domain,
// fields, exchangers, spectral plan, short-range kernel, worker pool —
// without populating particles. New generates initial conditions on top;
// Restore loads a checkpoint instead. Collective: every rank measures a
// share of the kernel fit's source offsets (fitKernel), and the fit is
// keyed on the seed alone, so its coefficients do not depend on the rank
// count.
func newSimulation(c *mpi.Comm, cfg Config) (*Simulation, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := [3]int{cfg.NGrid, cfg.NGrid, cfg.NGrid}
	s := &Simulation{Cfg: cfg, Comm: c, Timers: obs.NewPhases(c.Rank())}
	s.pool = par.NewPool(cfg.Threads)
	s.Dec = grid.NewDecomp(n, c.Size())
	s.Dom = domain.New(c, s.Dec, cfg.Overload)
	s.LP = cosmology.NewLinearPower(cfg.Cosmo, cfg.TransferFunc())
	s.sched = timestep.Schedule{
		AInit:     cosmology.AFromZ(cfg.ZInit),
		AFinal:    cosmology.AFromZ(cfg.ZFinal),
		Steps:     cfg.Steps,
		SubCycles: cfg.SubCycles,
	}
	if err := s.sched.Validate(); err != nil {
		return nil, err
	}
	np3 := float64(cfg.NParticles) * float64(cfg.NParticles) * float64(cfg.NParticles)
	ng3 := float64(cfg.NGrid) * float64(cfg.NGrid) * float64(cfg.NGrid)
	s.ParticleMass = ng3 / np3
	s.ParticleMassMsun = cfg.Cosmo.ParticleMass(cfg.NParticles, cfg.BoxMpc)

	// Grid fields: the acceleration fields must cover the overloaded
	// particles for interpolation, and the density deposit halo must be
	// just as wide — actives migrate only at the end of a full step, so
	// during sub-cycling they may stray into the shell and still deposit
	// locally (the no-communication property of overloading, §II). The +2
	// is one cell for the CIC stencil plus one cell of drift margin per
	// step; faster particles are a physical error (raise Overload), which
	// the indexing check reports loudly.
	ghost := int(math.Ceil(cfg.Overload)) + 2
	box := s.Dec.Box(c.Rank())
	s.rho = grid.NewField(n, box, ghost)
	s.rhoEx = grid.NewExchanger(c, s.Dec, s.rho)
	for d := 0; d < 3; d++ {
		s.acc[d] = grid.NewField(n, box, ghost)
	}
	// The exchanger plan depends only on the shape, which is identical for
	// all three components: build once and reuse.
	s.accEx[0] = grid.NewExchanger(c, s.Dec, s.acc[0])
	s.accEx[1] = s.accEx[0]
	s.accEx[2] = s.accEx[0]

	s.poisson = spectral.NewPoisson(c, s.Dec, spectral.Options{
		OmegaM: cfg.Cosmo.OmegaM,
		Sigma:  cfg.Sigma,
		Ns:     cfg.NsFilter,
		Filter: !cfg.DisableFilter,
		Pool:   s.pool,
	})
	s.Counters.FFTGridN = cfg.NGrid

	if cfg.Solver != PMOnly {
		poly, err := fitKernel(c, shortrange.FitOptions{
			GridN: cfg.FitGridN,
			RCut:  cfg.RCut,
			Sigma: cfg.Sigma,
			Ns:    cfg.NsFilter,
			Seed:  int64(cfg.Seed),
		})
		if err != nil {
			return nil, err
		}
		gm := 1.5 * cfg.Cosmo.OmegaM * s.ParticleMass / (4 * math.Pi)
		s.Kernel = shortrange.NewKernel(poly, cfg.RCut, cfg.Eps, gm)
		s.kern = s.Kernel.ApplyRanges
	}
	switch cfg.Solver {
	case PPTreePM:
		tr := tree.New(cfg.LeafSize)
		tr.RCut = cfg.RCut
		s.short, s.pairs = tr, &tr.Pairs
	case P3M:
		m := shortrange.NewMesh(cfg.RCut)
		s.short, s.pairs = m, &m.Pairs
	}
	if cfg.RebalanceThreshold > 0 {
		s.balancer = balance.New(balance.Options{
			Threshold: cfg.RebalanceThreshold,
			MinSteps:  cfg.RebalanceMinSteps,
		}, c.Size())
	}
	// Observability arming lives here, not in New, so Restore gets journal
	// and spans too. The gauges go into the world registry — the same one
	// the wire transport feeds its latency histogram — so the debug
	// endpoint's /debug/metrics shows physics progress and wire health side
	// by side.
	s.gaugeStep = c.World().Metrics().Gauge("sim.step")
	s.gaugeA = c.World().Metrics().Gauge("sim.a")
	// The registry holds numbers only, so the kernel body is an info-style
	// gauge: the name carries the value.
	c.World().Metrics().Gauge("shortrange.kernel_isa." + shortrange.KernelISA()).Set(1)
	if cfg.TraceDir != "" {
		if err := obs.ArmTracing(cfg.TraceDir, c.Size()); err != nil {
			return nil, err
		}
		j, err := obs.OpenJournal(cfg.TraceDir, c.Rank())
		if err != nil {
			return nil, err
		}
		s.journal = j
		if err := j.Record(obs.RunRecord{
			Kind: "run", Rank: c.Rank(), Ranks: c.Size(),
			Solver: cfg.Solver.String(), KernelISA: shortrange.KernelISA(),
			NParticles: cfg.NParticles, NGrid: cfg.NGrid,
		}); err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			obs.SetDebugRegistry(c.World().Metrics())
			obs.SetDebugJournal(j.Path())
		}
	}
	if cfg.DebugAddr != "" && c.Rank() == 0 {
		// The endpoint serves whatever is registered: metrics always, the
		// journal tail only when -trace armed one. Idempotent across
		// supervised in-process restarts (the first listener wins).
		obs.SetDebugRegistry(c.World().Metrics())
		if _, err := obs.EnableDebug(cfg.DebugAddr); err != nil {
			return nil, fmt.Errorf("core: debug endpoint %s: %w", cfg.DebugAddr, err)
		}
	}
	return s, nil
}

// fitKernel fits the short-range kernel polynomial as a collective: rank r
// measures the grid-force samples of the source offsets o ≡ r (mod P),
// rank 0 gathers them, fits over all of them in offset order and
// broadcasts the six coefficients. The samples and their order are those
// of the one-rank fit, so the coefficients are bitwise FitGridForce's at
// any rank count. A failure on any rank is returned on every rank.
func fitKernel(c *mpi.Comm, o shortrange.FitOptions) ([6]float64, error) {
	var poly [6]float64
	samples, err := shortrange.SampleGridForce(o, c.Rank(), c.Size())
	all := mpi.Gather(c, 0, samples)
	if err == nil && c.Rank() == 0 {
		var res *shortrange.FitResult
		if res, err = shortrange.FitSamples(o, c.Size(), all); err == nil {
			poly = res.Poly
		}
	}
	if !mpi.AllOK(c, err == nil) {
		if err == nil {
			err = fmt.Errorf("another rank failed")
		}
		return poly, fmt.Errorf("core: kernel fit failed: %w", err)
	}
	copy(poly[:], mpi.Bcast(c, 0, poly[:]))
	return poly, nil
}

// ensureFOF builds the persistent halo-finder plan on first use (purely
// local construction).
func (s *Simulation) ensureFOF() {
	if s.fof == nil {
		s.fof = analysis.NewPlan(s.Dom, s.pool)
	}
}

// ensurePower builds (or rebuilds, when the bin count changes) the
// persistent P(k) estimator plan on the Poisson solver's transform.
// Collective when it (re)builds; callers invoke it with identical arguments
// on every rank.
func (s *Simulation) ensurePower(bins int) {
	if s.power == nil || s.power.Bins() != bins {
		s.power = analysis.NewPower(s.poisson, s.pool, s.Cfg.BoxMpc, bins)
	}
}

// ensureAnalysis builds both in-situ plans.
func (s *Simulation) ensureAnalysis(bins int) {
	s.ensureFOF()
	s.ensurePower(bins)
}

// Z returns the current redshift.
func (s *Simulation) Z() float64 { return cosmology.ZFromA(s.A) }

// Step advances the simulation by one full long-range step (two PM kicks
// around SubCycles short-range SKS sub-cycles), then re-establishes domain
// ownership and overloading. Collective. Step is fully synchronous: the
// end-of-step exchange completes before it returns (Run overlaps it with
// the step callback instead), so a loop of Step is Run without overlap.
func (s *Simulation) Step() error {
	if err := s.step(); err != nil {
		return err
	}
	if err := s.maybeAnalyze(); err != nil {
		return err
	}
	if err := s.maybeCheckpoint(); err != nil {
		return err
	}
	s.FinishRefresh()
	return nil
}

// step runs the integrator ops and posts the end-of-step exchange, leaving
// the refresh completion pending so callers can hide it behind analysis or
// the next step's long-range kick.
func (s *Simulation) step() error {
	if s.StepIndex >= s.sched.Steps {
		return fmt.Errorf("core: all %d steps already taken", s.sched.Steps)
	}
	// Fault hook: "kill rank 2 at step 3" fires here, before any physics of
	// the step runs, so the surviving checkpoint state is from a completed
	// earlier step. One atomic load when no plan is armed.
	if inj := fault.Armed(); inj != nil {
		if err := inj.HitErr(fault.PointStep, s.Comm.Rank(), s.StepIndex); err != nil {
			return fmt.Errorf("core: step %d: %w", s.StepIndex, err)
		}
	}
	// Rebalance before any physics of the step, so the whole step runs under
	// one geometry and every rank makes the identical collective decision.
	s.maybeRebalance()
	a0, a1 := s.sched.StepBounds(s.StepIndex)
	var err error
	s.Timers.Time(obs.SpanStep, func() { err = s.runOps(a0, a1) })
	if err != nil {
		return err
	}
	s.StepIndex++
	s.A = a1
	s.recordStep(a1 - a0)
	return nil
}

// runOps runs one step's integrator ops, migrates, and posts the end-of-step
// overload refresh.
func (s *Simulation) runOps(a0, a1 float64) error {
	for _, op := range timestep.Ops(s.Cfg.Cosmo, a0, a1, s.sched.SubCycles) {
		switch op.Kind {
		case timestep.KickLong:
			var err error
			s.Timers.Time(obs.SpanKickLong, func() { err = s.kickLong(op.W) })
			if err != nil {
				return err
			}
		case timestep.KickShort:
			s.FinishRefresh() // no-op except before the first passive read
			s.Timers.Time(obs.SpanKickShort, func() { s.kickShort(op.W) })
			s.SubstepsDone++
		case timestep.Stream:
			s.FinishRefresh()
			s.Timers.Time(obs.SpanStream, func() { s.stream(op.W) })
		}
	}
	// Migration cannot overlap anything (the refresh classification needs
	// the arrived actives), but the refresh wait can: post it here and let
	// the caller run analysis — or the next deposit+solve — before the End.
	s.Timers.Time(obs.SpanCommPost, s.Dom.MigrateBegin)
	s.Timers.Time(obs.SpanCommWait, s.Dom.MigrateEnd)
	s.Timers.Time(obs.SpanCommPost, s.Dom.RefreshBegin)
	s.refreshPending = true
	s.observeCost()
	return nil
}

// recordStep appends this completed step to the run journal and mirrors the
// run's progress into the metric gauges. No-op without a journal.
func (s *Simulation) recordStep(da float64) {
	s.gaugeStep.Set(float64(s.StepIndex))
	s.gaugeA.Set(s.A)
	if s.journal == nil {
		return
	}
	// The phase clock accumulates for the life of the rank; the record
	// carries this step's contribution, so diff against the previous
	// record's snapshot.
	cur := s.Timers.Sums()
	step := cur
	for id := range step {
		step[id] -= s.lastPhases[id]
	}
	s.lastPhases = cur
	phases := make(map[string]float64)
	for _, pf := range step.Fractions() {
		phases[pf.Name] = pf.Seconds * 1e3
	}
	s.journal.Record(obs.StepRecord{
		Kind:       "step",
		Step:       s.StepIndex,
		A:          s.A,
		Da:         da,
		WallMs:     float64(step[obs.SpanStep]) / 1e6,
		PhaseMs:    phases,
		Imbalance:  s.Imbalance(),
		Rebalances: s.Counters.Rebalances,
		Restarts:   s.Counters.Restarts,
	})
}

// FinishRefresh completes a pending overlapped overload refresh. It is a
// no-op when none is in flight; Run callbacks that read Dom.Passive must
// call it first.
func (s *Simulation) FinishRefresh() {
	if !s.refreshPending {
		return
	}
	s.Timers.Time(obs.SpanCommWait, s.Dom.RefreshEnd)
	s.refreshPending = false
}

// Run advances through all remaining steps, invoking cb (if non-nil) after
// every step. The end-of-step overload refresh stays in flight while cb
// runs and completes behind the next step's density deposit, so the
// exchange wait is hidden twice over; cb may read actives freely but must
// call FinishRefresh before touching Dom.Passive.
func (s *Simulation) Run(cb func(step int, a float64)) error {
	// Flush this rank's trace ring however the run ends — completion, a step
	// error, or a panic unwinding toward the supervisor — so a crashed run
	// still leaves its timeline on disk.
	defer func() {
		if obs.TraceArmed() {
			obs.FlushRank(s.Comm.Rank())
		}
	}()
	for s.StepIndex < s.sched.Steps {
		if err := s.step(); err != nil {
			return err
		}
		if err := s.maybeAnalyze(); err != nil {
			return err
		}
		if err := s.maybeCheckpoint(); err != nil {
			return err
		}
		if cb != nil {
			cb(s.StepIndex, s.A)
		}
	}
	s.FinishRefresh()
	return nil
}

// maybeAnalyze runs the in-situ pipeline when the current step index hits
// the configured cadence.
func (s *Simulation) maybeAnalyze() error {
	if s.Cfg.AnalysisEvery <= 0 || s.StepIndex%s.Cfg.AnalysisEvery != 0 {
		return nil
	}
	return s.Analyze()
}

// Analyze runs one in-situ analysis pass — the paper's sky-survey data
// products, produced without writing raw particle dumps. The power
// spectrum runs first: it reads only active particles, so its deposit,
// transform, and binning legally overlap the end-of-step overload refresh
// still in flight; the halo finder reads the passive replicas and
// therefore completes the refresh before linking. Results land in
// LastAnalysis (plan-owned storage, valid until the next pass) and, when
// Cfg.AnalysisDir is set, on disk via the snapshot package. Collective.
func (s *Simulation) Analyze() error {
	s.ensureAnalysis(s.Cfg.AnalysisBins)
	var res InSituResult
	s.Timers.Time(obs.SpanAnalysis, func() {
		res = InSituResult{Step: s.StepIndex, A: s.A}
		res.Spectrum = s.power.Measure(s.Dom, true)
		s.FinishRefresh()
		spacing := float64(s.Cfg.NGrid) / float64(s.Cfg.NParticles)
		res.Halos = s.fof.FindHalos(s.Cfg.FOFLinking*spacing, s.Cfg.MinHaloSize, s.ParticleMassMsun)
	})
	s.LastAnalysis = &res
	if s.Cfg.AnalysisDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.Cfg.AnalysisDir, 0o755); err != nil {
		return fmt.Errorf("core: in-situ output directory: %w", err)
	}
	h := snapshot.Header{
		NGrid:  uint32(s.Cfg.NGrid),
		BoxMpc: s.Cfg.BoxMpc,
		A:      s.A,
		OmegaM: s.Cfg.Cosmo.OmegaM,
		Seed:   s.Cfg.Seed,
	}
	cat := fmt.Sprintf("%s/halos_step%04d.r%d.bin", s.Cfg.AnalysisDir, s.StepIndex, s.Comm.Rank())
	if err := snapshot.SaveHalos(cat, h, res.Halos); err != nil {
		return fmt.Errorf("core: in-situ halo catalog: %w", err)
	}
	if s.Comm.Rank() == 0 {
		pk := fmt.Sprintf("%s/spectrum_step%04d.bin", s.Cfg.AnalysisDir, s.StepIndex)
		if err := snapshot.SaveSpectrum(pk, h, res.Spectrum); err != nil {
			return fmt.Errorf("core: in-situ spectrum: %w", err)
		}
	}
	return nil
}

// kickLong deposits the density, runs the spectral Poisson solve, and
// applies p += w·a_pm to actives and passives. Communication is posted
// early and completed late: the density ghost-accumulate flies while a
// deferred overload refresh unpacks, and the three acceleration-component
// fills are all posted before any completes, so component d's wait overlaps
// the interpolation of components < d. Every overlap is bitwise neutral
// (the deposit needs only actives; each fill touches only its own field;
// each momentum component updates its own array).
//
// The CIC deposit and gather index the field's box plus ghost halo and panic
// beyond it, so both particle sets are checked first: a particle that has
// streamed further than the halo since the last exchange ends the step with
// an *ErrParticleEscaped instead.
func (s *Simulation) kickLong(w float64) error {
	if err := s.checkEscaped(&s.Dom.Active); err != nil {
		return err
	}
	s.Timers.Time(obs.SpanCIC, func() {
		s.rho.Fill(0)
		grid.DepositCIC(s.rho, s.Dom.Active.X, s.Dom.Active.Y, s.Dom.Active.Z, s.ParticleMass)
		s.Counters.CICOps += int64(s.Dom.Active.Len())
	})
	var rhoOp *grid.GhostOp
	s.Timers.Time(obs.SpanCommPost, func() { rhoOp = s.rhoEx.AccumulateBegin(s.rho) })
	// Complete a refresh deferred from the previous step while the ghost
	// sums are in flight (first passive read of this step is below).
	s.FinishRefresh()
	s.Timers.Time(obs.SpanCommWait, rhoOp.End)
	if err := s.checkEscaped(&s.Dom.Passive); err != nil {
		return err
	}
	s.Timers.Time(obs.SpanFFT, func() {
		s.poisson.Solve(s.rho, &s.acc)
		// One r2c forward + three c2r gradient inverses; Hermitian symmetry
		// halves each, so the flop model counts 4×½ = 2 complex-transform
		// equivalents.
		s.Counters.FFT3D += 2
	})
	s.Timers.Time(obs.SpanCommPost, func() {
		for d := 0; d < 3; d++ {
			s.fillOps[d] = s.accEx[d].FillBegin(s.acc[d])
		}
	})
	for d := 0; d < 3; d++ {
		s.Timers.Time(obs.SpanCommWait, s.fillOps[d].End)
		s.fillOps[d] = nil
		s.Timers.Time(obs.SpanCIC, func() {
			s.applyGridKickComponent(&s.Dom.Active, d, w)
			s.applyGridKickComponent(&s.Dom.Passive, d, w)
		})
	}
	s.Counters.CICOps += 3 * int64(s.Dom.Active.Len()+s.Dom.Passive.Len())
	return nil
}

// ErrParticleEscaped reports that a particle streamed out of its rank's box
// plus the field ghost halo between two exchanges, so the long-range kick
// cannot deposit or interpolate it. The configuration, not the machine, is
// at fault — the step is too long for the overload width — so a rerun from
// any checkpoint meets the same particle again: supervisors classify it as
// FailConfig and do not retry.
type ErrParticleEscaped struct {
	Step   int        // 0-based full step being taken
	Rank   int        // rank that held the particle
	Coord  [3]float32 // its position, in grid cells
	Lo, Hi [3]int     // the rank's box, in grid cells
	Ghost  int        // field ghost width, in grid cells
}

func (e *ErrParticleEscaped) Error() string {
	return fmt.Sprintf("core: step %d: rank %d: particle at (%g, %g, %g) is outside box %v-%v plus the %d-cell ghost halo: "+
		"the step outran the overload width; raise Steps or Overload",
		e.Step, e.Rank, e.Coord[0], e.Coord[1], e.Coord[2], e.Lo, e.Hi, e.Ghost)
}

// checkEscaped returns an *ErrParticleEscaped for the first particle of p
// whose CIC cloud no longer fits the PM fields.
func (s *Simulation) checkEscaped(p *domain.Particles) error {
	i := s.rho.FirstEscaped(p.X, p.Y, p.Z)
	if i < 0 {
		return nil
	}
	return &ErrParticleEscaped{
		Step: s.StepIndex, Rank: s.Comm.Rank(),
		Coord: [3]float32{p.X[i], p.Y[i], p.Z[i]},
		Lo:    s.rho.Box.Lo, Hi: s.rho.Box.Hi, Ghost: s.rho.Ghost,
	}
}

// applyGridKickComponent interpolates one acceleration component and
// updates that momentum component. Both the CIC gather and the momentum
// update are threaded (per-particle independent, so the result is identical
// to the serial path), and the interpolation buffer is persistent.
func (s *Simulation) applyGridKickComponent(p *domain.Particles, d int, w float64) {
	n := p.Len()
	if n == 0 {
		return
	}
	if cap(s.kickBuf) < n {
		s.kickBuf = make([]float32, n)
	}
	buf := s.kickBuf[:n]
	grid.InterpCICParallel(s.acc[d], p.X, p.Y, p.Z, buf, w, s.pool)
	v := [3][]float32{p.Vx, p.Vy, p.Vz}[d]
	s.pool.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] += buf[i]
		}
	})
}

// kickShort evaluates the short-range force with the configured solver
// over actives+passives and applies p += w·a_sr.
func (s *Simulation) kickShort(w float64) {
	if s.short == nil {
		return
	}
	act, pas := &s.Dom.Active, &s.Dom.Passive
	p := s.pairs
	p.Load([3][]float32{act.X, act.Y, act.Z}, [3][]float32{pas.X, pas.Y, pas.Z})
	if len(p.X) == 0 {
		return
	}
	s.Timers.Time(obs.SpanBuild, s.short.Build)
	// Split the measured time by the modeled kernel rate: the kernel share
	// is interactions at the sustained per-pair cost; remainder is the
	// walk. (Direct per-block timing would serialize the workers' clocks;
	// the paper reports the same split from hardware counters.)
	s.Timers.Split(obs.SpanKernel, obs.SpanWalk, func() float64 {
		p.Run(s.short, s.kern, s.pool)
		inter := p.Interactions.Load()
		s.Counters.KernelInteractions += inter
		s.Counters.WalkNodes += p.NodesVisited.Load()
		return kernelShare(inter, p.NeighborCount.Load())
	})

	// Threaded momentum update in working order: Orig is a permutation of
	// the combined (active-first) layout, so every slot kicks a distinct
	// particle.
	wv := float32(w)
	na := int32(act.Len())
	orig, ax, ay, az := p.Orig, p.AX, p.AY, p.AZ
	s.pool.For(len(orig), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if o := orig[i]; o < na {
				act.Vx[o] += wv * ax[i]
				act.Vy[o] += wv * ay[i]
				act.Vz[o] += wv * az[i]
			} else {
				o -= na
				pas.Vx[o] += wv * ax[i]
				pas.Vy[o] += wv * ay[i]
				pas.Vz[o] += wv * az[i]
			}
		}
	})
}

// splitAtActive clamps a shard [lo,hi) of the combined active-first index
// range against the active prefix [0,na): active indices are [lo,aEnd),
// passive combined indices are [pBegin,hi) (subtract na for the passive-
// local index). Shared by every loop over the combined particle layout.
func splitAtActive(na, lo, hi int) (aEnd, pBegin int) {
	aEnd = hi
	if aEnd > na {
		aEnd = na
	}
	pBegin = lo
	if pBegin < na {
		pBegin = na
	}
	return
}

// kernelShare estimates the kernel's fraction of the combined walk+kernel
// time from the interaction-to-gather ratio.
func kernelShare(interactions, gathered int64) float64 {
	if interactions <= 0 {
		return 0
	}
	// Gather cost per neighbor copied is ~1/8 of a pair interaction.
	k := float64(interactions)
	g := float64(gathered) / 8
	return k / (k + g)
}

// stream advances positions x += w·p for actives and passives, sharded
// across the worker pool (per-particle independent, so identical to
// serial).
func (s *Simulation) stream(w float64) {
	wv := float32(w)
	act, pas := &s.Dom.Active, &s.Dom.Passive
	na := act.Len()
	s.pool.For(na+pas.Len(), func(lo, hi int) {
		aEnd, pBegin := splitAtActive(na, lo, hi)
		for i := lo; i < aEnd; i++ {
			act.X[i] += wv * act.Vx[i]
			act.Y[i] += wv * act.Vy[i]
			act.Z[i] += wv * act.Vz[i]
		}
		for i := pBegin; i < hi; i++ {
			j := i - na
			pas.X[j] += wv * pas.Vx[j]
			pas.Y[j] += wv * pas.Vy[j]
			pas.Z[j] += wv * pas.Vz[j]
		}
	})
}

// PowerSpectrum measures P(k) of the current particle distribution on the
// persistent estimator plan (built on first use, rebuilt only
// when the bin count changes). The returned spectrum is caller-owned — it
// stays valid across later measurements; zero-allocation consumers use
// the plan's Measure directly. Collective.
func (s *Simulation) PowerSpectrum(bins int, subtractShot bool) *analysis.PowerSpectrum {
	s.ensurePower(bins)
	ps := s.power.Measure(s.Dom, subtractShot)
	return &analysis.PowerSpectrum{
		K:         append([]float64(nil), ps.K...),
		P:         append([]float64(nil), ps.P...),
		NModes:    append([]int64(nil), ps.NModes...),
		ShotNoise: ps.ShotNoise,
	}
}

// FindHalos runs the distributed FOF finder on the persistent analysis
// plan; b is the linking length as a fraction of the mean interparticle
// spacing (0.2 is standard). It reads the passive replicas, so it
// completes any overlapped refresh first. Each halo is reported by exactly
// one rank; the returned slice is plan-owned, valid until the next call.
// Collective.
func (s *Simulation) FindHalos(b float64, minN int) []analysis.Halo {
	s.FinishRefresh()
	s.ensureFOF()
	spacing := float64(s.Cfg.NGrid) / float64(s.Cfg.NParticles)
	return s.fof.FindHalos(b*spacing, minN, s.ParticleMassMsun)
}

// SaveSnapshot writes this rank's active particles to path as a particle
// snapshot container carrying the run's header (grid, box, scale factor,
// cosmology, seed). Per-rank products use per-rank paths, as in haccsim.
func (s *Simulation) SaveSnapshot(path string) error {
	h := snapshot.Header{
		NGrid:  uint32(s.Cfg.NGrid),
		BoxMpc: s.Cfg.BoxMpc,
		A:      s.A,
		OmegaM: s.Cfg.Cosmo.OmegaM,
		Seed:   s.Cfg.Seed,
	}
	return snapshot.SaveFile(path, h, &s.Dom.Active)
}

// DensityStats deposits the density and returns its statistics. Collective.
func (s *Simulation) DensityStats() analysis.DensityStats {
	s.rho.Fill(0)
	grid.DepositCIC(s.rho, s.Dom.Active.X, s.Dom.Active.Y, s.Dom.Active.Z, s.ParticleMass)
	s.rhoEx.Accumulate(s.rho)
	owned := float64(len(s.rho.Owned()))
	local := analysis.MeasureDensityStats(s.rho.Owned())
	// Combine across ranks: the variance sum, the cell count and the
	// negative-cell count (integral, so exact in float64) in one reduction.
	sum := mpi.AllReduce(s.Comm, []float64{
		local.Variance * owned, owned, math.Round(local.NegFrac * owned),
	}, mpi.SumF64)
	mx := mpi.AllReduce(s.Comm, []float64{local.Max}, mpi.MaxF64)
	mn := mpi.AllReduce(s.Comm, []float64{local.Min}, mpi.MinF64)
	return analysis.DensityStats{
		Variance: sum[0] / sum[1],
		Max:      mx[0],
		Min:      mn[0],
		NegFrac:  sum[2] / sum[1],
	}
}

// GlobalCounters reduces the per-rank counters across the communicator. The
// communication totals come from each rank's own Comm.Stats() slot and merge
// through the same collective — never by reading peers' memory, which does
// not exist when ranks are separate OS processes on a wire transport.
func (s *Simulation) GlobalCounters() machine.Counters {
	cs := s.Comm.Stats()
	vals := []int64{s.Counters.KernelInteractions, s.Counters.FFT3D, s.Counters.CICOps,
		s.Counters.WalkNodes, cs.Msgs, cs.Bytes, cs.WireMsgs, cs.WireBytes}
	tot := mpi.AllReduce(s.Comm, vals, mpi.SumI64)
	return machine.Counters{
		KernelInteractions: tot[0],
		FFT3D:              s.Counters.FFT3D, // global transforms, not per-rank sums
		FFTGridN:           s.Counters.FFTGridN,
		CICOps:             tot[2],
		WalkNodes:          tot[3],
		MsgsSent:           tot[4],
		BytesSent:          tot[5],
		WireMsgs:           tot[6],
		WireBytes:          tot[7],
		// Collective events, identical on every rank: kept, not summed.
		Restarts:        s.Counters.Restarts,
		CkptRetries:     s.Counters.CkptRetries,
		CkptQuarantined: s.Counters.CkptQuarantined,
		Rebalances:      s.Counters.Rebalances,
	}
}

// MemoryMB estimates this rank's particle + field memory in MB (the
// Table II/III memory column).
func (s *Simulation) MemoryMB() float64 {
	bytes := s.Dom.MemoryBytes()
	bytes += int64(len(s.rho.Data)+3*len(s.acc[0].Data)) * 8
	return float64(bytes) / (1 << 20)
}
