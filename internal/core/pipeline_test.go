package core

import (
	"testing"

	"hacc/internal/analysis"
	"hacc/internal/mpi"
)

// runSpectrum evolves the config and returns rank 0's measured P(k).
func runSpectrum(t *testing.T, cfg Config, procs int) *analysis.PowerSpectrum {
	t.Helper()
	var ps *analysis.PowerSpectrum
	err := mpi.Run(procs, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Run(nil); err != nil {
			t.Error(err)
			return
		}
		out := s.PowerSpectrum(10, false)
		if c.Rank() == 0 {
			ps = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestThreadedPipelineMatchesSerial is the reused-scratch/threading
// equivalence regression: every threaded component (pooled force kernels,
// CIC gather, momentum updates, stream) is per-particle independent, so a multi-threaded run over several steps
// (scratch and solver state reused across every sub-cycle) must produce
// exactly the same spectrum as the serial run.
func TestThreadedPipelineMatchesSerial(t *testing.T) {
	for _, solver := range []SolverKind{PPTreePM, P3M} {
		cfg := baseConfig()
		cfg.Solver = solver
		cfg.Steps = 2
		cfg.SubCycles = 3
		cfg.Threads = 1
		serial := runSpectrum(t, cfg, 2)
		cfg.Threads = 4
		threaded := runSpectrum(t, cfg, 2)
		for i := range serial.K {
			if serial.P[i] != threaded.P[i] {
				t.Errorf("%v k=%.3f: serial %g vs threaded %g",
					solver, serial.K[i], serial.P[i], threaded.P[i])
			}
		}
	}
}

// TestOverlappedStepMatchesSequential extends the pipeline-equivalence
// regression to the overlapped communication layer: Run hides the deferred
// refresh behind the density ghost-accumulate, pipelines the three
// acceleration fills against interpolation, and defers the end-of-step
// refresh past the step callback — all bitwise-neutral reorderings, so the
// spectrum must exactly match a loop of Step, which completes every
// exchange before it returns. The callback exercises the overlap window,
// including a mid-window FinishRefresh.
func TestOverlappedStepMatchesSequential(t *testing.T) {
	type mode int
	const (
		stepLoop mode = iota
		overlapped
		withFinish
	)
	run := func(cfg Config, m mode) *analysis.PowerSpectrum {
		var ps *analysis.PowerSpectrum
		err := mpi.Run(2, func(c *mpi.Comm) {
			s, err := New(c, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if m == stepLoop {
				for s.StepIndex < cfg.Steps {
					if err := s.Step(); err != nil {
						t.Error(err)
						return
					}
				}
			} else {
				steps := 0
				err = s.Run(func(step int, a float64) {
					steps++
					if m == withFinish && step == 1 {
						// A callback that needs passives completes the
						// pending refresh explicitly; the rest of the run
						// stays overlapped.
						s.FinishRefresh()
						if s.Dom.Passive.Len() == 0 {
							t.Error("no passives after FinishRefresh")
						}
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
				if steps != cfg.Steps {
					t.Errorf("callback ran %d times, want %d", steps, cfg.Steps)
				}
			}
			out := s.PowerSpectrum(10, false)
			if c.Rank() == 0 {
				ps = out
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	for _, solver := range []SolverKind{PPTreePM, P3M} {
		cfg := baseConfig()
		cfg.Solver = solver
		cfg.Steps = 2
		cfg.SubCycles = 3
		cfg.Threads = 4
		sequential := run(cfg, stepLoop)
		ov := run(cfg, overlapped)
		fin := run(cfg, withFinish)
		for i := range sequential.K {
			if sequential.P[i] != ov.P[i] {
				t.Errorf("%v k=%.3f: Step loop %g vs Run %g",
					solver, sequential.K[i], sequential.P[i], ov.P[i])
			}
			if sequential.P[i] != fin.P[i] {
				t.Errorf("%v k=%.3f: Step loop %g vs Run+FinishRefresh %g",
					solver, sequential.K[i], sequential.P[i], fin.P[i])
			}
		}
	}
}
