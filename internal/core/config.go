package core

import (
	"fmt"
	"runtime"
	"time"

	"hacc/internal/cosmology"
	"hacc/internal/spectral"
)

// SolverKind selects the short-range backend.
type SolverKind int

// Short-range backends.
const (
	// PPTreePM uses the rank-local RCB tree (BG/P, BG/Q configuration).
	PPTreePM SolverKind = iota
	// P3M uses the chaining-mesh direct particle-particle solver
	// (Roadrunner / GPU configuration).
	P3M
	// PMOnly disables the short-range force (long/medium range only).
	PMOnly
)

func (s SolverKind) String() string {
	switch s {
	case PPTreePM:
		return "PPTreePM"
	case P3M:
		return "P3M"
	default:
		return "PMOnly"
	}
}

// Config specifies a simulation.
type Config struct {
	// Problem definition.
	NGrid      int     // PM grid points per dimension
	NParticles int     // particles per dimension
	BoxMpc     float64 // box side in Mpc/h
	Cosmo      cosmology.Params
	Transfer   string // "eh", "eh-nowiggle" (default), or "bbks"
	ZInit      float64
	ZFinal     float64
	Steps      int // full (long-range) steps
	SubCycles  int // short-range sub-cycles per step (paper: 5–10)
	Seed       uint64
	FixedAmp   bool // fixed-amplitude initial conditions

	// Solver configuration.
	Solver        SolverKind
	RCut          float64 // short/long force matching radius in cells (default 3)
	LeafSize      int     // RCB fat-leaf capacity (default 64)
	Overload      float64 // overload shell width in cells (default RCut+1)
	Threads       int     // goroutines per rank for force kernels (default 2)
	Eps           float64 // softening added to s=r² (cells², default 0.01)
	Sigma         float64 // spectral filter width (default 0.8)
	NsFilter      int     // spectral filter exponent (default 3)
	DisableFilter bool    // ablation: no isotropizing filter
	FitGridN      int     // grid used for the kernel fit (default 32)

	// In-situ analysis (the paper's sky-survey data products, produced
	// without raw particle dumps). All four knobs are validated centrally in
	// Validate: zero values take the documented defaults; negative (or
	// otherwise senseless) values are configuration errors, never silent
	// misbehavior.

	// AnalysisEvery runs the in-situ pipeline — distributed FOF halo
	// catalog plus pencil-r2c P(k) — after every AnalysisEvery-th full
	// step. 0 disables in-situ analysis (the default); negative values are
	// rejected by Validate.
	AnalysisEvery int
	// AnalysisBins is the number of P(k) bins (default 16; must be ≥1).
	AnalysisBins int
	// FOFLinking is the FOF linking length as a fraction of the mean
	// interparticle spacing (default 0.2, the survey standard; must be
	// positive, and the resulting length must fit inside the overload
	// shell).
	FOFLinking float64
	// MinHaloSize is the minimum FOF group membership reported in halo
	// catalogs (default 10; must be ≥1).
	MinHaloSize int
	// AnalysisDir, when non-empty, emits every in-situ product through the
	// snapshot package: a per-rank halo catalog and a rank-0 power
	// spectrum per analysis step. Empty keeps results in memory only
	// (Simulation.LastAnalysis).
	AnalysisDir string

	// Checkpointing (the paper-era production campaigns ran as chains of
	// restarts; see DESIGN.md "Checkpoint / restart"). CheckpointEvery
	// writes a restart-exact checkpoint — one collective gio container per
	// state product — after every CheckpointEvery-th full step, into a
	// step%06d subdirectory of CheckpointDir. 0 disables cadenced
	// checkpoints (the default; Simulation.Checkpoint can still be called
	// manually); negative values are rejected by Validate, as is setting
	// one of the pair without the other. The active-particle write legally
	// overlaps the deferred end-of-step refresh (the replicas are written
	// after it completes), the same pattern as the in-situ P(k).
	CheckpointEvery int
	CheckpointDir   string

	// Load balancing (PR 8; ROADMAP item 2, arXiv:1410.2805 §short-range).
	// RebalanceThreshold arms the cost-driven domain rebalancer: when the
	// EWMA-smoothed per-rank cost imbalance (max/mean of kernel interactions
	// + walk node visits, AllGathered each step) exceeds the threshold, the
	// slab boundaries are recut to equalize cost and the particles migrate
	// to the new geometry. 0 disables rebalancing (the default — the uniform
	// decomposition is the bitwise oracle); values in (0,1] or negative are
	// rejected by Validate. RebalanceMinSteps is the hysteresis guard: the
	// minimum number of full steps between rebalances (default 2). Both
	// knobs alter which geometry each step runs under and therefore the
	// bitwise trajectory, so both are fingerprinted.
	RebalanceThreshold float64
	RebalanceMinSteps  int

	// ICKind selects the initial-condition generator: "zeldovich" (default)
	// is the linear-theory realization; "halo" is the deliberately
	// clustered cold start (ic.GenerateClustered — one deep off-center
	// Plummer halo over a uniform background), the acceptance workload for
	// the load balancer. Part of the problem definition: fingerprinted.
	ICKind string

	// Checkpoint write resilience (PR 6). A transient collective write
	// failure (a flaky fsync, a momentarily full disk) retries up to
	// CheckpointRetries times with jittered exponential backoff starting at
	// CheckpointRetryBackoff, instead of failing the step. Every gio failure
	// path is collectively agreed, so all ranks observe the same error and
	// retry in lockstep; abandoned attempts leave no temporary files behind.
	// Zero values take the defaults (2 retries, 50ms); negative values are
	// rejected by Validate. Both are recovery knobs, not physics: they are
	// excluded from the config fingerprint, so a restart may change them.
	CheckpointRetries      int
	CheckpointRetryBackoff time.Duration

	// Observability (PR 10). TraceDir arms the span tracer and the per-rank
	// run journal: New (and Restore) arms obs tracing for the world, every
	// rank appends a JSONL step record to TraceDir/journal.r%03d.jsonl, and
	// Run flushes each rank's ring as Chrome trace-event JSON
	// (TraceDir/trace.r%03d.json — load in chrome://tracing or Perfetto).
	// Empty (the default) keeps tracing disarmed: the span calls left in the
	// hot path cost one atomic load each and never allocate. DebugAddr is
	// consumed by cmd/haccsim, which serves pprof, live metrics, and the
	// journal tail on that address from rank 0. Both are output knobs like
	// AnalysisDir — bitwise-neutral and excluded from the fingerprint, so a
	// restart may turn tracing on to diagnose a wedged campaign.
	TraceDir  string
	DebugAddr string
}

// WithDefaults returns the config with defaults filled in.
func (c Config) WithDefaults() Config {
	if c.Transfer == "" {
		c.Transfer = "eh-nowiggle"
	}
	if c.RCut == 0 {
		c.RCut = 3.0
	}
	if c.LeafSize == 0 {
		c.LeafSize = 64
	}
	if c.Overload == 0 {
		c.Overload = c.RCut + 1
	}
	if c.Threads == 0 {
		c.Threads = min(2, runtime.GOMAXPROCS(0))
	}
	if c.Eps == 0 {
		c.Eps = 0.01
	}
	if c.Sigma == 0 {
		c.Sigma = spectral.DefaultSigma
	}
	if c.NsFilter == 0 {
		c.NsFilter = spectral.DefaultNs
	}
	if c.SubCycles == 0 {
		c.SubCycles = 5
	}
	if c.FitGridN == 0 {
		c.FitGridN = 32
	}
	if c.Cosmo == (cosmology.Params{}) {
		c.Cosmo = cosmology.Default()
	}
	if c.AnalysisBins == 0 {
		c.AnalysisBins = 16
	}
	if c.FOFLinking == 0 {
		c.FOFLinking = 0.2
	}
	if c.MinHaloSize == 0 {
		c.MinHaloSize = 10
	}
	if c.RebalanceMinSteps == 0 {
		c.RebalanceMinSteps = 2
	}
	if c.ICKind == "" {
		c.ICKind = "zeldovich"
	}
	if c.CheckpointRetries == 0 {
		c.CheckpointRetries = 2
	}
	if c.CheckpointRetryBackoff == 0 {
		c.CheckpointRetryBackoff = 50 * time.Millisecond
	}
	return c
}

// Validate reports configuration errors (call after WithDefaults).
func (c Config) Validate() error {
	if c.NGrid < 8 {
		return fmt.Errorf("core: NGrid %d too small", c.NGrid)
	}
	if c.NParticles < 2 {
		return fmt.Errorf("core: NParticles %d too small", c.NParticles)
	}
	if c.BoxMpc <= 0 {
		return fmt.Errorf("core: BoxMpc must be positive")
	}
	if c.ZInit <= c.ZFinal {
		return fmt.Errorf("core: ZInit %g must exceed ZFinal %g", c.ZInit, c.ZFinal)
	}
	if c.Steps < 1 {
		return fmt.Errorf("core: Steps must be ≥1")
	}
	if err := c.Cosmo.Validate(); err != nil {
		return err
	}
	switch c.Transfer {
	case "eh", "eh-nowiggle", "bbks":
	default:
		return fmt.Errorf("core: unknown transfer function %q", c.Transfer)
	}
	if 2*c.Overload >= float64(c.NGrid) {
		return fmt.Errorf("core: overload %g too wide for grid %d", c.Overload, c.NGrid)
	}
	// The kernel fit samples the PM force out to RCut+0.5 cells around a
	// source at the fit grid's centre; shortrange.SampleGridForce needs
	// FitGridN ≥ 4·(RCut+1) for that.
	if c.Solver != PMOnly && float64(c.FitGridN) < 4*(c.RCut+1) {
		return fmt.Errorf("core: FitGridN %d too small for RCut %g (need ≥ %g)", c.FitGridN, c.RCut, 4*(c.RCut+1))
	}
	// In-situ analysis knobs: all analysis configuration is validated here,
	// in one place, so misconfiguration fails at New rather than misbehaving
	// steps later.
	if c.AnalysisEvery < 0 {
		return fmt.Errorf("core: AnalysisEvery %d must be ≥0 (0 disables in-situ analysis)", c.AnalysisEvery)
	}
	if c.AnalysisBins < 1 {
		return fmt.Errorf("core: AnalysisBins %d must be ≥1", c.AnalysisBins)
	}
	if c.FOFLinking <= 0 {
		return fmt.Errorf("core: FOFLinking %g must be positive (fraction of the mean interparticle spacing)", c.FOFLinking)
	}
	if c.MinHaloSize < 1 {
		return fmt.Errorf("core: MinHaloSize %d must be ≥1", c.MinHaloSize)
	}
	// Only the in-situ pipeline consumes FOFLinking automatically; ad-hoc
	// FindHalos calls validate their linking length at call time, so a
	// disabled pipeline must not reject configs over the defaulted value.
	if c.AnalysisEvery > 0 && c.NParticles > 0 && c.NGrid > 0 {
		spacing := float64(c.NGrid) / float64(c.NParticles)
		if b := c.FOFLinking * spacing; b > c.Overload {
			return fmt.Errorf("core: FOF linking length %g cells (FOFLinking %g × spacing %g) exceeds the overload width %g; raise Overload or shrink FOFLinking",
				b, c.FOFLinking, spacing, c.Overload)
		}
	}
	// Load-balancing knobs: the threshold is a max/mean ratio, so anything
	// at or below 1 would fire on every step forever.
	if c.RebalanceThreshold != 0 && c.RebalanceThreshold <= 1 {
		return fmt.Errorf("core: RebalanceThreshold %g must exceed 1 (0 disables rebalancing)", c.RebalanceThreshold)
	}
	if c.RebalanceMinSteps < 1 {
		return fmt.Errorf("core: RebalanceMinSteps %d must be ≥1", c.RebalanceMinSteps)
	}
	switch c.ICKind {
	case "zeldovich", "halo":
	default:
		return fmt.Errorf("core: unknown ICKind %q (want \"zeldovich\" or \"halo\")", c.ICKind)
	}
	// Checkpoint knobs: cadence and directory come as a pair, so a typo in
	// one cannot silently disable durability for a multi-day run.
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery %d must be ≥0 (0 disables cadenced checkpoints)", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return fmt.Errorf("core: CheckpointEvery %d needs CheckpointDir", c.CheckpointEvery)
	}
	if c.CheckpointEvery == 0 && c.CheckpointDir != "" {
		return fmt.Errorf("core: CheckpointDir %q needs CheckpointEvery ≥1", c.CheckpointDir)
	}
	if c.CheckpointRetries < 0 {
		return fmt.Errorf("core: CheckpointRetries %d must be ≥0 (0 takes the default)", c.CheckpointRetries)
	}
	if c.CheckpointRetryBackoff < 0 {
		return fmt.Errorf("core: CheckpointRetryBackoff %v must be ≥0 (0 takes the default)", c.CheckpointRetryBackoff)
	}
	return nil
}

// Fingerprint hashes every configuration field that affects the bitwise
// trajectory of the run — the problem definition, the integrator schedule,
// and the solver parameters. Output knobs and thread counts are
// excluded: they are bitwise-neutral (pinned by the PR 1–3 equivalence
// tests), so a restart may legally change them. A
// checkpoint stores the fingerprint of the config that produced it, and
// Restore refuses a config whose fingerprint differs — restart-exactness
// cannot be promised across a physics change. Call on a defaulted config
// (WithDefaults), as Checkpoint does, so explicit and defaulted spellings
// of the same run match.
func (c Config) Fingerprint() uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	mix(fmt.Sprintf("%d %d %g %#v %q %g %g %d %d %d %t",
		c.NGrid, c.NParticles, c.BoxMpc, c.Cosmo, c.Transfer,
		c.ZInit, c.ZFinal, c.Steps, c.SubCycles, c.Seed, c.FixedAmp))
	// The literals fill the retired slab-FFT, tree-count and threaded-deposit
	// slots, so checkpoints written before their removal still restore.
	mix(fmt.Sprintf("%d %g %d %g %g %g %d %t %t %d %d %t",
		c.Solver, c.RCut, c.LeafSize, c.Overload, c.Eps, c.Sigma,
		c.NsFilter, c.DisableFilter, false, c.FitGridN, 1, false))
	// Load-balancing schedule and IC family (PR 8): which geometry a step
	// runs under — and which universe it starts from — is physics for
	// restart-exactness purposes.
	mix(fmt.Sprintf("%g %d %q", c.RebalanceThreshold, c.RebalanceMinSteps, c.ICKind))
	return h
}

// TransferFunc resolves the configured transfer function.
func (c Config) TransferFunc() cosmology.TransferFunc {
	switch c.Transfer {
	case "eh":
		return cosmology.EisensteinHu(c.Cosmo)
	case "bbks":
		return cosmology.BBKS(c.Cosmo)
	default:
		return cosmology.EisensteinHuNoWiggle(c.Cosmo)
	}
}
