package core

// Wire-world equivalence and process-level chaos tests (ISSUE 9): the
// goroutine world is the bitwise oracle a wire transport must match, first
// inside one process (RunWire loopback), then across real OS processes
// spawned through SuperviseProcs — including an attempt cut down by a real
// kill -9 and recovered from a checkpoint.
//
// The process-level tests re-exec this test binary: TestMain detects the
// helper environment and becomes one rank of the wire world instead of
// running the test suite.

import (
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"hacc/internal/mpi"
)

const (
	envHelper   = "HACC_CORE_WIRE_HELPER" // marks the re-exec'd rank process
	envHelperCk = "HACC_HELPER_CKPT"      // checkpoint root for chaosCfg
	envHelperTo = "HACC_HELPER_OUT"       // where rank 0 writes the run product
	envHelperKS = "HACC_HELPER_KILL"      // step at which rank 1 SIGKILLs itself
)

func TestMain(m *testing.M) {
	if os.Getenv(envHelper) != "" {
		wireHelperMain()
		return // unreachable: wireHelperMain exits
	}
	os.Exit(m.Run())
}

// runProduct is what one full run yields for bitwise comparison: the global
// ID-sorted particle state and the P(k) estimate, both as raw bit patterns,
// plus rank 0's Counters.Restarts (the recovery history a process run's
// ranks received from the supervisor).
type runProduct struct {
	State    []uint64
	Pk       []uint64
	Restarts int64
}

// collectProduct drives the remaining schedule and gathers the run product
// on rank 0 (zero-length on other ranks). cb is the per-step callback.
func collectProduct(c *mpi.Comm, s *Simulation, cb func(step int, a float64)) (runProduct, error) {
	if err := s.Run(cb); err != nil {
		return runProduct{}, err
	}
	ps := s.PowerSpectrum(8, true)
	g := gatherSorted(c, &s.Dom.Active)
	if c.Rank() != 0 {
		return runProduct{}, nil
	}
	pk := make([]uint64, 0, 3*len(ps.K))
	for i := range ps.K {
		pk = append(pk, math.Float64bits(ps.K[i]), math.Float64bits(ps.P[i]), uint64(ps.NModes[i]))
	}
	return runProduct{State: g, Pk: pk}, nil
}

// oracleProduct runs the full schedule on the in-process goroutine world —
// the reference every wire run must match bitwise.
func oracleProduct(t *testing.T, ranks int, cfg Config) runProduct {
	t.Helper()
	var out runProduct
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := New(c, cfg)
		if err != nil {
			panic(err)
		}
		p, err := collectProduct(c, s, nil)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			out = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameProduct(t *testing.T, label string, got, want runProduct) {
	t.Helper()
	if !equalU64(got.State, want.State) {
		t.Errorf("%s: global ID-sorted particle state differs from the goroutine oracle (%d vs %d words)",
			label, len(got.State), len(want.State))
	}
	if !equalU64(got.Pk, want.Pk) {
		t.Errorf("%s: P(k) bits differ from the goroutine oracle", label)
	}
}

// The ROADMAP acceptance bar: a full run at 4 ranks over the wire transport
// (TCP loopback and the unix fast path) produces bitwise-identical global
// ID-sorted particle state and P(k) vs the goroutine world.
func TestWireFullRunEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step simulation; skipped under -short (race CI)")
	}
	const ranks = 4
	cfg := chaosCfg("") // no checkpoints: pure stepping pipeline
	cfg.CheckpointEvery = 0
	want := oracleProduct(t, ranks, cfg)
	for _, transport := range []string{"tcp", "unix"} {
		var got runProduct
		err := mpi.RunWire(ranks, mpi.WireOptions{Transport: transport, Timeout: 60 * time.Second},
			func(c *mpi.Comm) {
				s, err := New(c, cfg)
				if err != nil {
					panic(err)
				}
				p, err := collectProduct(c, s, nil)
				if err != nil {
					panic(err)
				}
				if c.Rank() == 0 {
					got = p
				}
			})
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		sameProduct(t, transport, got, want)
	}
}

// wireHelperMain is the re-exec'd rank-process body: run chaosCfg's
// schedule as one rank of the wire world (optionally SIGKILLing rank 1
// mid-run on the first attempt) and write the run product from rank 0.
// RunRankProcess exits through the supervisor exit-code protocol.
func wireHelperMain() {
	outPath := os.Getenv(envHelperTo)
	killStep := -1
	if v := os.Getenv(envHelperKS); v != "" {
		killStep, _ = strconv.Atoi(v)
	}
	firstAttempt := os.Getenv(EnvResume) == ""
	RunRankProcess(chaosCfg(os.Getenv(envHelperCk)), "", nil, 0, func(s *Simulation) error {
		c := s.Comm
		p, err := collectProduct(c, s, func(step int, a float64) {
			// The real thing, not an injected panic: no deferred cleanup, no
			// exit status, no abort frame — peers find out from the dead
			// connection. First attempt only (EnvResume gates recovery).
			if firstAttempt && step == killStep && c.Rank() == 1 {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		})
		if err != nil || c.Rank() != 0 {
			return err
		}
		p.Restarts = s.Counters.Restarts
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := gob.NewEncoder(f).Encode(p); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// superviseHelper runs one supervised multi-process world of re-exec'd test
// binaries and returns rank 0's run product.
func superviseHelper(t *testing.T, ranks int, ckroot string, killStep, maxRestarts int) (*Report, runProduct, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(t.TempDir(), "product.gob")
	env := []string{
		envHelper + "=1",
		envHelperCk + "=" + ckroot,
		envHelperTo + "=" + outPath,
	}
	if killStep >= 0 {
		env = append(env, envHelperKS+"="+strconv.Itoa(killStep))
	}
	rep, runErr := SuperviseProcs(ProcOptions{
		Ranks:       ranks,
		Transport:   "tcp",
		Command:     []string{exe},
		Env:         env,
		MaxRestarts: maxRestarts,
		Backoff:     time.Millisecond,
		GraceKill:   20 * time.Second,
		// Rebuilding the world after a kill must come through the checkpoint
		// path, so recovery resumes rather than restarting from scratch.
		CheckpointRoot: ckroot,
		Stdout:         os.Stdout,
		Stderr:         os.Stderr,
		Log:            func(line string) { t.Log(line) },
	})
	if runErr != nil {
		return rep, runProduct{}, runErr
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatalf("helper wrote no product: %v", err)
	}
	defer f.Close()
	var p runProduct
	if err := gob.NewDecoder(f).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return rep, p, nil
}

// Real OS processes over TCP loopback match the goroutine oracle bitwise —
// the acceptance bar crossed with actual process isolation, not goroutines.
func TestProcWorldEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped under -short (race CI)")
	}
	const ranks = 4
	ckroot := t.TempDir()
	want := oracleProduct(t, ranks, chaosCfg(ckroot))
	rep, got, err := superviseHelper(t, ranks, t.TempDir(), -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 0 {
		t.Errorf("clean run restarted %d times", rep.Restarts)
	}
	sameProduct(t, "proc/tcp", got, want)
}

// A rank process killed with SIGKILL mid-run: the peers observe the dead
// connection and exit through the abort protocol, the supervisor classifies
// the signal death as a crash, resumes every rank from the newest
// checkpoint, and the healed run's final state is bitwise identical to the
// uninterrupted oracle.
func TestProcKillRecoveryBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes; skipped under -short (race CI)")
	}
	const ranks = 4
	ckroot := t.TempDir()
	want := oracleProduct(t, ranks, chaosCfg(t.TempDir()))
	rep, got, err := superviseHelper(t, ranks, ckroot, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts < 1 {
		t.Fatalf("kill at step 3 caused no restart (incidents: %+v)", rep.Incidents)
	}
	if len(rep.Incidents) == 0 || rep.Incidents[0].Class != FailPanic {
		t.Errorf("signal death classified as %v, want %v (crash)", rep.Incidents, FailPanic)
	}
	if rep.Incidents[0].Resume == "" {
		t.Error("recovery did not resume from a checkpoint")
	}
	if got.Restarts != int64(rep.Restarts) {
		t.Errorf("rank 0 Counters.Restarts = %d, report says %d", got.Restarts, rep.Restarts)
	}
	sameProduct(t, "proc/kill-9", got, want)
}
