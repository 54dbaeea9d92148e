package core

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
	"time"

	"hacc/internal/mpi"
)

// escapeCfg is the smallest configuration found to reproduce the
// benchmarks/README.md ghost-overrun (recorded there at NP=32, NG=128):
// three cells per particle, z 24→0 in a single step, so the first stream
// carries a particle past the 6-cell field halo.
func escapeCfg() Config {
	return Config{
		NGrid: 30, NParticles: 10, BoxMpc: 40,
		ZInit: 24, ZFinal: 0, Steps: 1, Seed: 42, FixedAmp: true,
		Solver: PMOnly, Threads: 1,
	}
}

// A particle that outruns the ghost halo used to panic inside the CIC
// deposit ("grid: coordinate … outside box …+ghost"); Step now returns a
// typed error naming step, rank, position and halo width, with the remedy.
func TestParticleEscapedIsTypedError(t *testing.T) {
	runErr := mpi.Run(2, func(c *mpi.Comm) {
		s, err := New(c, escapeCfg())
		if err != nil {
			panic(err)
		}
		if err := s.Step(); err != nil {
			panic(err)
		}
	})
	var pe *ErrParticleEscaped
	if !errors.As(runErr, &pe) {
		t.Fatalf("run error = %v, want an *ErrParticleEscaped", runErr)
	}
	if pe.Step != 0 || pe.Rank < 0 || pe.Rank > 1 || pe.Ghost != 6 {
		t.Errorf("unexpected fields: %+v", pe)
	}
	for _, want := range []string{"step 0", "6-cell ghost halo", "raise Steps or Overload"} {
		if !strings.Contains(pe.Error(), want) {
			t.Errorf("message %q lacks %q", pe.Error(), want)
		}
	}
	if classifyFailure(runErr) != FailConfig || ExitCodeFor(runErr) != ExitConfig {
		t.Errorf("classified %v / exit %d, want %v / %d",
			classifyFailure(runErr), ExitCodeFor(runErr), FailConfig, ExitConfig)
	}
}

// The supervisor does not spend its restarts on a run that cannot succeed:
// one incident, class config, no restart.
func TestSupervisedParticleEscapedNotRetried(t *testing.T) {
	rep, err := RunSupervised(escapeCfg(), SupervisorOptions{
		Ranks: 2, MaxRestarts: 3, Backoff: time.Millisecond,
	}, func(s *Simulation) error { return s.Run(nil) })
	var pe *ErrParticleEscaped
	if !errors.As(err, &pe) {
		t.Fatalf("supervised error = %v, want an *ErrParticleEscaped", err)
	}
	if rep.Completed || rep.Restarts != 0 || len(rep.Incidents) != 1 || rep.Incidents[0].Class != FailConfig {
		t.Fatalf("report %+v: want one %v incident and no restart", rep, FailConfig)
	}
}

// The process supervisor reads the same verdict from the exit-code protocol:
// a rank process that exited with ExitConfig outranks its peers' aborts and
// is not retryable.
func TestClassifyExitsConfig(t *testing.T) {
	exit := func(code int) error {
		err := exec.Command("sh", "-c", fmt.Sprintf("exit %d", code)).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Skipf("cannot produce an exit status here: %v", err)
		}
		return err
	}
	err := classifyExits([]error{exit(ExitAbort), exit(ExitConfig)}, false)
	if got := classifyFailure(err); got != FailConfig || got.Retryable() {
		t.Fatalf("exits {abort, config} classified %v (retryable %v): %v", got, got.Retryable(), err)
	}
}
