// Package core is the HACC framework proper: it wires the spectral
// particle-mesh long/medium-range solver, the switchable short-range
// backends (RCB tree "PPTreePM" as on BG/Q, or chaining-mesh "P3M" as on
// Roadrunner), particle overloading, the SKS symplectic stepper, and the
// in-situ analysis pipeline into a full cosmological N-body simulation
// (paper §II–III).
//
// A Simulation owns every persistent plan for the life of the run: the
// worker pool and short-range solver scratch (PR 1), the planned spectral
// Poisson solver (PR 2), the neighbor-stencil exchange plans with
// overlapped Begin/End stepping (PR 3), the in-situ FOF and P(k) plans
// driven by Config.AnalysisEvery (PR 4), and the collective checkpoint
// writer driven by Config.CheckpointEvery (PR 5). The hot stepping path
// allocates nothing after the first sub-cycle. Each phase of a step is
// timed by one call on the rank's phase clock (Simulation.Timers, an
// obs.Phases), which feeds the phase split, the journal's step records and,
// when Config.TraceDir arms tracing, the trace timeline.
//
// Checkpoint/Restore make the run durable: a checkpoint captures the
// complete run state (active and replica particles, counters, schedule
// position, scale factor, seed, and config fingerprint) in gio containers,
// overlapping the state write with the deferred end-of-step refresh, and a
// restore at the writing rank count continues bitwise-identically — at a
// different rank count, records are reassigned through the domain
// geometry. All checkpoint failures are collectively agreed (mpi.AllOK),
// so every rank observes one consistent outcome.
//
// One supervisor makes the run self-healing. Its recovery loop classifies
// each failed attempt (panic, hang, abort, corrupt checkpoint, config),
// quarantines damaged checkpoint directories, and resumes from the newest
// restorable checkpoint with bounded exponential backoff — converging, by
// determinism plus restart-exactness, to the bitwise-identical final state
// of an uninterrupted run. The config class is the exception: a run that
// cannot succeed as configured (a particle outrunning the ghost halo,
// reported by Step as *ErrParticleEscaped) is deterministic, so it is
// reported once and never retried. The loop drives one of two attempt
// runners: RunSupervised runs goroutine ranks in this process,
// SuperviseProcs spawns one OS process per rank and reads each one's
// failure from its exit code. Every rank starts through Start (New, or
// Restore with restore failures marked corrupt-checkpoint), and a rank
// process lives in RunRankProcess, the child half of SuperviseProcs. The
// recovery history reaches the ranks' machine.Counters under both runners.
// Transient checkpoint write failures retry in collective lockstep below
// the supervisor (Config.CheckpointRetries). internal/fault manufactures
// all of these failures deterministically for tests and chaos runs.
package core
