// Package hacc is a from-scratch Go reproduction of HACC, the
// Hybrid/Hardware Accelerated Cosmology Code of Habib et al., "The Universe
// at Extreme Scale: Multi-Petaflop Sky Simulation on the BG/Q" (SC 2012,
// arXiv:1211.4864).
//
// The package re-exports the public surface of the framework. A minimal
// simulation looks like:
//
//	err := hacc.RunParallel(8, func(c *hacc.Comm) {
//		sim, err := hacc.NewSimulation(c, hacc.Config{
//			NGrid: 64, NParticles: 64, BoxMpc: 250,
//			ZInit: 50, ZFinal: 0, Steps: 20,
//			Solver: hacc.PPTreePM, Seed: 42,
//		})
//		if err != nil { panic(err) }
//		if err := sim.Run(nil); err != nil { panic(err) }
//		ps := sim.PowerSpectrum(32, true)
//		_ = ps
//	})
//
// Architecture (one package per subsystem, see DESIGN.md):
//
//   - internal/mpi        — in-process message-passing runtime (ranks are
//     goroutines; real collective algorithms)
//   - internal/fft        — mixed-radix + Bluestein complex FFT
//   - internal/pfft       — distributed slab/pencil 3-D FFT (paper §IV-A)
//   - internal/grid       — block-decomposed fields, ghost exchange, CIC
//   - internal/spectral   — filtered Poisson solver: eq. (5) filter,
//     6th-order influence function, Super-Lanczos gradients (§II)
//   - internal/domain     — SOA particles, migration, overloading (Fig. 4)
//   - internal/tree       — rank-local RCB tree, fat leaves (§III)
//   - internal/shortrange — f_SR(s) kernel, grid-force fit, P3M backend
//   - internal/timestep   — SKS symplectic sub-cycled stepper (eq. 6)
//   - internal/ic         — Zel'dovich Gaussian random field ICs
//   - internal/cosmology  — background, growth, transfer functions, σ8
//   - internal/analysis   — P(k), FOF halos, sub-halos, density statistics
//   - internal/gio        — self-describing CRC-protected parallel container
//     I/O (GenericIO-style)
//   - internal/snapshot   — particle/catalog/spectrum products on the
//     container format
//   - internal/machine    — flop accounting, BG/Q projection model
//   - internal/core       — the assembled framework, checkpoint/restart
package hacc

import (
	"hacc/internal/analysis"
	"hacc/internal/core"
	"hacc/internal/cosmology"
	"hacc/internal/fault"
	"hacc/internal/mpi"
)

// Comm is a communicator handle for one simulated MPI rank.
type Comm = mpi.Comm

// Config specifies a simulation; zero fields take defaults.
type Config = core.Config

// Simulation is a running HACC simulation (one rank's view).
type Simulation = core.Simulation

// SolverKind selects the short-range force backend.
type SolverKind = core.SolverKind

// Short-range backends: the BG/Q tree configuration, the Roadrunner P3M
// configuration, and the long-range-only mode.
const (
	PPTreePM = core.PPTreePM
	P3M      = core.P3M
	PMOnly   = core.PMOnly
)

// CosmologyParams specifies the background cosmological model.
type CosmologyParams = cosmology.Params

// PowerSpectrum is a binned P(k) measurement.
type PowerSpectrum = analysis.PowerSpectrum

// Halo is a friends-of-friends group.
type Halo = analysis.Halo

// RunParallel launches fn on n simulated MPI ranks and waits for all of
// them. Each rank must construct its Simulation collectively.
func RunParallel(n int, fn func(c *Comm)) error { return mpi.Run(n, fn) }

// NewSimulation builds a simulation on the calling rank (collective).
func NewSimulation(c *Comm, cfg Config) (*Simulation, error) { return core.New(c, cfg) }

// RestoreSimulation resumes a simulation from a checkpoint step directory
// (collective). The physics configuration comes from the checkpoint; mutate
// may adjust bitwise-neutral knobs only. See core.Restore.
func RestoreSimulation(c *Comm, dir string, mutate func(*Config)) (*Simulation, error) {
	return core.Restore(c, dir, mutate)
}

// ResolveCheckpoint accepts a checkpoint step directory or a cadenced
// checkpoint root and returns the newest restorable step directory.
func ResolveCheckpoint(path string) (string, error) { return core.ResolveCheckpoint(path) }

// DefaultCosmology returns the WMAP-7-like parameters of the paper's runs.
func DefaultCosmology() CosmologyParams { return cosmology.Default() }

// SupervisorOptions configures RunSupervised.
type SupervisorOptions = core.SupervisorOptions

// SupervisorReport is a supervised run's recovery log.
type SupervisorReport = core.Report

// Incident is one failed attempt in a supervised run's recovery log.
type Incident = core.Incident

// FailureClass is the supervisor's diagnosis of a failed attempt.
type FailureClass = core.FailureClass

// Failure classes a supervised attempt can be diagnosed with.
const (
	FailPanic             = core.FailPanic
	FailHang              = core.FailHang
	FailAbort             = core.FailAbort
	FailCorruptCheckpoint = core.FailCorruptCheckpoint
	FailConfig            = core.FailConfig
)

// ErrParticleEscaped is the error Step and Run return when a particle
// streams past the field ghost halo between exchanges (the time step is too
// long for the overload width: raise Steps or Overload). Supervisors class
// it FailConfig and do not retry.
type ErrParticleEscaped = core.ErrParticleEscaped

// RunSupervised runs body under the failure supervisor: crashes, hangs, and
// corrupt checkpoints are classified, damaged checkpoints quarantined, and
// the run resumed from the newest restorable checkpoint with exponential
// backoff, up to MaxRestarts; a FailConfig failure ends it at once. See
// core.RunSupervised.
func RunSupervised(cfg Config, opts SupervisorOptions, body func(*Simulation) error) (*SupervisorReport, error) {
	return core.RunSupervised(cfg, opts, body)
}

// ArmFaults installs a fault-injection plan parsed from a spec such as
// "kill rank 2 at step 3; fail every 5th fsync" (see internal/fault for the
// grammar). It returns a disarm function. Faulting is process-global and
// costs one atomic load per hook site when no plan is armed.
func ArmFaults(spec string) (disarm func(), err error) {
	p, err := fault.Parse(spec)
	if err != nil {
		return nil, err
	}
	fault.Arm(p)
	return fault.Disarm, nil
}
