package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hacc/internal/analysis"
	"hacc/internal/fault"
	"hacc/internal/mpi"
)

// chaosCfg is the shared tiny-but-real configuration for resilience tests:
// small enough for short mode, full-range enough that every checkpoint and
// recovery path is the production one.
func chaosCfg(ckroot string) Config {
	return Config{
		NGrid: 16, NParticles: 8, BoxMpc: 120,
		ZInit: 20, ZFinal: 1, Steps: 4, SubCycles: 2,
		Seed: 17, Solver: PMOnly,
		CheckpointEvery: 2, CheckpointDir: ckroot,
		CheckpointRetryBackoff: time.Millisecond,
	}
}

// noTmpFiles asserts no abandoned .tmp container anywhere under root.
func noTmpFiles(t *testing.T, root string) {
	t.Helper()
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Errorf("abandoned temporary file %s", path)
		}
		return nil
	})
}

// Satellite 1: a transient collective write failure retries instead of
// failing the step, counts the retry, and leaves no temporary file behind.
func TestCheckpointRetryRecoversTransientFailure(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	fault.Arm(fault.MustParse("fail fsync once"))
	defer fault.Disarm()
	var retries int64
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Checkpoint(filepath.Join(ckroot, "step000000")); err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			retries = s.Counters.CkptRetries
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Fatalf("CkptRetries = %d, want 1", retries)
	}
	noTmpFiles(t, ckroot)
	// The checkpoint that survived a failed first attempt must restore.
	if err := mpi.Run(ranks, func(c *mpi.Comm) {
		if _, err := Restore(c, filepath.Join(ckroot, "step000000"), nil); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Satellite 1 (exhaustion side): a persistent failure surfaces after the
// bounded retries — it does not loop — and every abandoned attempt cleans
// its temporary file.
func TestCheckpointRetryExhaustion(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	cfg.CheckpointRetries = 1
	fault.Arm(fault.MustParse("fail fsync")) // every fsync, forever
	defer fault.Disarm()
	var retries int64
	injected := make(chan bool, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		err = s.Checkpoint(filepath.Join(ckroot, "step000000"))
		if err == nil {
			panic("checkpoint succeeded under a persistent fsync fault")
		}
		// The failure is collectively agreed: only the rank whose fsync was
		// faulted carries the injected error; peers see the agreed summary.
		var ie *fault.InjectedError
		injected <- errors.As(err, &ie)
		if c.Rank() == 0 {
			retries = s.Counters.CkptRetries
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(injected)
	var n int
	for ok := range injected {
		if ok {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no rank surfaced *fault.InjectedError")
	}
	if retries != 1 {
		t.Fatalf("CkptRetries = %d, want 1 (bounded)", retries)
	}
	noTmpFiles(t, ckroot)
}

// Satellite 3, the chaos soak: across 3 seeds, a seeded-random rank is
// killed at a seeded-random step; the supervised run must recover and reach
// the bitwise-identical global particle state and P(k) of an uninterrupted
// oracle. Runs in short mode by design — this is the resilience layer's
// acceptance test.
func TestChaosSoakKillRecoversBitwise(t *testing.T) {
	const ranks = 3
	const bins = 8
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ckroot := t.TempDir()
			cfg := chaosCfg(ckroot)

			// Oracle: uninterrupted run, no checkpoints, no faults.
			oracleCfg := cfg
			oracleCfg.CheckpointEvery = 0
			oracleCfg.CheckpointDir = ""
			var wantState []uint64
			var wantPk *analysis.PowerSpectrum
			if err := mpi.Run(ranks, func(c *mpi.Comm) {
				s, err := New(c, oracleCfg)
				if err != nil {
					panic(err)
				}
				if err := s.Run(nil); err != nil {
					panic(err)
				}
				g := gatherSorted(c, &s.Dom.Active)
				ps := s.PowerSpectrum(bins, true) // collective: every rank participates
				if c.Rank() == 0 {
					wantState = g
					wantPk = specCopy(ps)
				}
			}); err != nil {
				t.Fatal(err)
			}

			// Seeded fault site: any rank, any step of the schedule.
			z := seed * 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			rank := int(z % ranks)
			step := int((z >> 8) % uint64(cfg.Steps))
			fault.Arm(fault.MustParse(fmt.Sprintf("kill rank %d at step %d", rank, step)))
			defer fault.Disarm()

			var gotState []uint64
			var gotPk *analysis.PowerSpectrum
			var restarts int64
			rep, err := RunSupervised(cfg, SupervisorOptions{
				Ranks:   ranks,
				Backoff: time.Millisecond,
			}, func(s *Simulation) error {
				if err := s.Run(nil); err != nil {
					return err
				}
				g := gatherSorted(s.Comm, &s.Dom.Active)
				ps := s.PowerSpectrum(bins, true) // collective: every rank participates
				if s.Comm.Rank() == 0 {
					gotState = g
					gotPk = specCopy(ps)
					restarts = s.Counters.Restarts
				}
				return nil
			})
			if err != nil {
				t.Fatalf("kill rank %d step %d: supervised run failed: %v", rank, step, err)
			}
			if !rep.Completed || rep.Restarts < 1 {
				t.Fatalf("report %+v: expected a completed run with ≥1 restart", rep)
			}
			if len(rep.Incidents) == 0 || rep.Incidents[0].Class != FailPanic {
				t.Fatalf("incidents %+v: want first class panic", rep.Incidents)
			}
			if restarts != int64(rep.Restarts) {
				t.Fatalf("Counters.Restarts = %d, report says %d", restarts, rep.Restarts)
			}
			if !equalU64(gotState, wantState) {
				t.Fatalf("kill rank %d step %d: recovered final particle state differs from oracle", rank, step)
			}
			if len(gotPk.P) != len(wantPk.P) {
				t.Fatalf("P(k) bin count %d != %d", len(gotPk.P), len(wantPk.P))
			}
			for i := range wantPk.P {
				if gotPk.P[i] != wantPk.P[i] || gotPk.K[i] != wantPk.K[i] {
					t.Fatalf("kill rank %d step %d: P(k) bin %d differs: %g != %g",
						rank, step, i, gotPk.P[i], wantPk.P[i])
				}
			}
		})
	}
}

// A wedged rank (injected hang mid-schedule) is detected by the operation
// timeout within the configured deadline and the supervised run recovers to
// completion instead of blocking forever.
func TestSupervisedHangDetectedAndRecovered(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	fault.Arm(fault.MustParse("hang rank 1 at step 2"))
	defer fault.Disarm()
	start := time.Now()
	rep, err := RunSupervised(cfg, SupervisorOptions{
		Ranks:     ranks,
		Backoff:   time.Millisecond,
		OpTimeout: 2 * time.Second,
		Deadline:  60 * time.Second,
	}, func(s *Simulation) error {
		return s.Run(nil)
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Fatalf("hang recovery took %v", elapsed)
	}
	if !rep.Completed || len(rep.Incidents) == 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Incidents[0].Class != FailHang {
		t.Fatalf("incident class %v, want hang", rep.Incidents[0].Class)
	}
	// The hang fired after the step-2 checkpoint: recovery must resume from
	// it, not restart from initial conditions.
	if !strings.HasSuffix(rep.Incidents[0].Resume, "step000002") {
		t.Fatalf("resumed from %q, want the step 2 checkpoint", rep.Incidents[0].Resume)
	}
}

// pickResume quarantines a damaged newest checkpoint (instead of silently
// skipping it) and falls back to the older good one.
func TestPickResumeQuarantinesDamagedCheckpoint(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	if err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		if err := s.Run(nil); err != nil { // writes step000002 and step000004
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the newest state container's data region.
	state := filepath.Join(ckroot, "step000004", StateFile)
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(raw) - 64; i < len(raw)-60; i++ {
		raw[i] ^= 0xff
	}
	if err := os.WriteFile(state, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	dir, quars := pickResume(ckroot)
	if !strings.HasSuffix(dir, "step000002") {
		t.Fatalf("pickResume chose %q, want the step 2 checkpoint", dir)
	}
	if len(quars) != 1 || !strings.Contains(quars[0], "quarantined") {
		t.Fatalf("quarantined %v, want the damaged step 4 dir moved aside", quars)
	}
	if _, err := os.Stat(filepath.Join(ckroot, "quarantined", "step000004", StateFile)); err != nil {
		t.Fatalf("quarantined checkpoint not preserved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckroot, "step000004")); !os.IsNotExist(err) {
		t.Fatal("damaged checkpoint still in the resume path")
	}
	// LatestCheckpoint no longer sees the quarantined dir.
	latest, err := LatestCheckpoint(ckroot)
	if err != nil || !strings.HasSuffix(latest, "step000002") {
		t.Fatalf("LatestCheckpoint after quarantine: %q, %v", latest, err)
	}
}

// With no restorable checkpoint at all (kill before the first cadence
// point), the supervisor restarts from initial conditions and still
// completes.
func TestSupervisedRecoveryFromInitialConditions(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	fault.Arm(fault.MustParse("kill rank 0 at step 1"))
	defer fault.Disarm()
	rep, err := RunSupervised(cfg, SupervisorOptions{Ranks: ranks, Backoff: time.Millisecond},
		func(s *Simulation) error { return s.Run(nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Restarts != 1 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Incidents[0].Resume != "" {
		t.Fatalf("resumed from %q, want initial conditions", rep.Incidents[0].Resume)
	}
}

// MaxRestarts bounds recovery: a fault that kills every attempt surfaces as
// an error carrying the classified failure, with one incident per attempt.
func TestSupervisedRestartsExhausted(t *testing.T) {
	const ranks = 2
	ckroot := t.TempDir()
	cfg := chaosCfg(ckroot)
	// Count high enough to kill the initial attempt and both restarts.
	fault.Arm(fault.MustParse("kill rank 0 at step 1 times 5"))
	defer fault.Disarm()
	rep, err := RunSupervised(cfg, SupervisorOptions{
		Ranks: ranks, MaxRestarts: 2, Backoff: time.Millisecond,
	}, func(s *Simulation) error { return s.Run(nil) })
	if err == nil {
		t.Fatal("supervised run succeeded with an unkillable fault")
	}
	var crash *fault.Crash
	if !errors.As(err, &crash) {
		t.Fatalf("cannot classify final error: %v", err)
	}
	if rep.Completed || len(rep.Incidents) != 3 || rep.Restarts != 2 {
		t.Fatalf("report %+v: want 3 incidents over 2 restarts, not completed", rep)
	}
}

// scriptedErr is a fake attempt failure the classifier reads as a crash.
type scriptedErr struct{ n int }

func (e *scriptedErr) Error() string { return fmt.Sprintf("scripted failure %d", e.n) }

// runScript drives the shared recovery loop with a fake attempt runner that
// returns script[i] on attempt i (success once the script runs out) — no
// world, no processes — and returns the attempts the runner was handed.
func runScript(rc recovery, script ...error) (*Report, []attempt, error) {
	var seen []attempt
	rep, err := supervise(rc, func(a attempt) error {
		seen = append(seen, a)
		if i := len(seen) - 1; i < len(script) {
			return script[i]
		}
		return nil
	})
	return rep, seen, err
}

// The recovery loop on scripted failures: one incident per failed attempt
// in the Report and the journal, FailConfig stops at once, a corrupt resume
// dir is quarantined, backoff doubles up to BackoffMax, the recovery history
// reaches every attempt, and an exhausted budget's error unwraps to the last
// failure.
func TestSuperviseLoopScriptedFailures(t *testing.T) {
	crash := func(n int) error { return &scriptedErr{n} }

	t.Run("backoff doubles and caps", func(t *testing.T) {
		trace := t.TempDir()
		rep, seen, err := runScript(recovery{
			maxRestarts: 5, backoff: time.Millisecond, backoffMax: 3 * time.Millisecond, traceDir: trace,
		}, crash(1), crash(2), crash(3), crash(4))
		if err != nil || !rep.Completed || rep.Restarts != 4 || len(rep.Incidents) != 4 {
			t.Fatalf("report %+v, err %v: want completion after 4 restarts", rep, err)
		}
		want := []time.Duration{1, 2, 3, 3}
		for i, inc := range rep.Incidents {
			if inc.Attempt != i || inc.Class != FailPanic || inc.Backoff != want[i]*time.Millisecond {
				t.Errorf("incident %d = %+v, want attempt %d, panic, backoff %v", i, inc, i, want[i]*time.Millisecond)
			}
		}
		for i, a := range seen {
			if a.restarts != i {
				t.Errorf("attempt %d was told restarts=%d", i, a.restarts)
			}
		}
		raw, err := os.ReadFile(filepath.Join(trace, "journal.supervisor.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(raw), `"kind":"incident"`); n != 4 {
			t.Errorf("journal holds %d incident records, want 4:\n%s", n, raw)
		}
	})

	t.Run("config stops at once", func(t *testing.T) {
		rep, seen, err := runScript(recovery{maxRestarts: 3, backoff: time.Millisecond}, &ErrParticleEscaped{})
		if err == nil || len(seen) != 1 || rep.Restarts != 0 || len(rep.Incidents) != 1 || rep.Incidents[0].Class != FailConfig {
			t.Fatalf("report %+v after %d attempts, err %v: want one config incident, no retry", rep, len(seen), err)
		}
	})

	t.Run("corrupt checkpoint quarantined", func(t *testing.T) {
		root := t.TempDir()
		bad := filepath.Join(root, "step000004")
		if err := os.Mkdir(bad, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, seen, err := runScript(recovery{maxRestarts: 1, backoff: time.Millisecond, resumeFrom: bad},
			&restoreError{dir: bad, err: errors.New("bad meta")})
		if err != nil || len(rep.Incidents) != 1 || rep.Incidents[0].Class != FailCorruptCheckpoint {
			t.Fatalf("report %+v, err %v: want one corrupt-checkpoint incident then success", rep, err)
		}
		moved := filepath.Join(root, "quarantined", "step000004")
		if q := rep.Incidents[0].Quarantined; len(q) != 1 || q[0] != moved {
			t.Fatalf("quarantined %v, want [%s]", q, moved)
		}
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Fatal("corrupt resume dir still in place")
		}
		if len(seen) != 2 || seen[1] != (attempt{resume: "", restarts: 1, quarantined: 1}) {
			t.Fatalf("attempts %+v: want the retry from initial conditions told of 1 restart, 1 quarantine", seen)
		}
	})

	t.Run("exhausted unwraps to last failure", func(t *testing.T) {
		rep, _, err := runScript(recovery{maxRestarts: 2, backoff: time.Millisecond}, crash(1), crash(2), crash(3))
		var last *scriptedErr
		if !errors.As(err, &last) || last.n != 3 {
			t.Fatalf("error %v does not unwrap to scripted failure 3", err)
		}
		if rep.Completed || rep.Restarts != 2 || len(rep.Incidents) != 3 {
			t.Fatalf("report %+v: want 3 incidents over 2 restarts", rep)
		}
	})
}

// A resume dir that fails to restore with no checkpoint root configured (a
// hand-written Simulation.Checkpoint resumed under supervision) is
// quarantined beside itself, not into the working directory.
func TestQuarantineStaysBesideCheckpoint(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "mine")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := RunSupervised(chaosCfg(""), SupervisorOptions{
		Ranks: 2, MaxRestarts: -1, ResumeFrom: dir,
	}, func(s *Simulation) error { return s.Run(nil) })
	if err == nil || len(rep.Incidents) != 1 || rep.Incidents[0].Class != FailCorruptCheckpoint {
		t.Fatalf("report %+v, err %v: want one corrupt-checkpoint incident", rep, err)
	}
	if _, err := os.Stat(filepath.Join(root, "quarantined", "mine")); err != nil {
		t.Fatalf("resume dir not quarantined beside itself: %v", err)
	}
	if _, err := os.Stat("quarantined"); !os.IsNotExist(err) {
		t.Fatal("quarantine created a directory in the working directory")
	}
}
