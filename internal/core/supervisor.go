package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hacc/internal/fault"
	"hacc/internal/gio"
	"hacc/internal/mpi"
	"hacc/internal/obs"
)

// FailureClass is the supervisor's diagnosis of one failed attempt. Every
// class but FailConfig retries until MaxRestarts — on real machines transient
// and permanent faults are not distinguishable from one observation — and
// the class decides the recovery action: a corrupt checkpoint is quarantined
// before the next attempt, and the log records what the campaign actually
// died of.
type FailureClass int

// Failure classes, most-specific first (classification order matters: a
// corrupt checkpoint surfaces as a panic too, so it is tested before the
// generic classes).
const (
	// FailPanic: a rank panicked — an injected kill, an assertion, a real
	// bug. The world was torn down by the mpi recovery path.
	FailPanic FailureClass = iota
	// FailHang: a blocking operation exceeded the operation timeout, or the
	// whole attempt exceeded its deadline — a wedged rank.
	FailHang
	// FailAbort: a rank called Comm.Abort, or peers were unblocked by a
	// world abort — the attempt observed another rank's failure.
	FailAbort
	// FailCorruptCheckpoint: the resume checkpoint could not be restored
	// (damaged container, schedule mismatch). The directory is quarantined
	// and the next attempt falls back to an older checkpoint.
	FailCorruptCheckpoint
	// FailConfig: the run cannot succeed as configured (ErrParticleEscaped:
	// the time step outruns the overload width). Deterministic, so a retry
	// from any checkpoint fails the same way: the supervisor stops at once.
	FailConfig
)

// Retryable reports whether another attempt can succeed where this one
// failed.
func (f FailureClass) Retryable() bool { return f != FailConfig }

func (f FailureClass) String() string {
	switch f {
	case FailPanic:
		return "panic"
	case FailHang:
		return "hang"
	case FailAbort:
		return "abort"
	case FailCorruptCheckpoint:
		return "corrupt-checkpoint"
	case FailConfig:
		return "config"
	}
	return fmt.Sprintf("failure(%d)", int(f))
}

// Incident is one failed attempt in a supervised run's recovery log.
type Incident struct {
	Attempt     int          // 0-based attempt that failed
	Class       FailureClass // diagnosis
	Err         error        // the error mpi.Run surfaced
	Resume      string       // checkpoint dir the NEXT attempt resumes from ("" = initial conditions)
	Quarantined []string     // checkpoint dirs moved aside before the next attempt
	Backoff     time.Duration
}

// SupervisorOptions configures RunSupervised. The zero value supervises a
// run with 3 restarts, 100ms initial backoff, and no timeouts (hang
// detection off).
type SupervisorOptions struct {
	// Ranks is the world size (default 1).
	Ranks int
	// MaxRestarts bounds recovery attempts after the initial run (default
	// 3; negative disables restarts entirely — failures surface directly).
	MaxRestarts int
	// Backoff is the sleep before the first restart, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// BackoffMax caps the exponential backoff (default 5s).
	BackoffMax time.Duration
	// OpTimeout bounds every blocking mpi operation (World.SetTimeout);
	// zero disables. It must comfortably exceed the worst compute imbalance
	// between ranks or slow-but-healthy peers are misdiagnosed as hung.
	OpTimeout time.Duration
	// Deadline bounds each whole attempt's wall clock (World.RunDeadline);
	// zero disables. This is the only detector that catches a rank wedged
	// outside mpi calls.
	Deadline time.Duration
	// ResumeFrom, when non-empty, makes the FIRST attempt restore from this
	// checkpoint step directory or cadence root instead of starting from
	// initial conditions (the -restart flag under supervision).
	ResumeFrom string
	// Mutate adjusts bitwise-neutral config knobs on every restore, exactly
	// as in Restore.
	Mutate func(*Config)
	// Log, when non-nil, receives one line per supervisor action.
	Log func(string)
}

// Report summarizes a supervised run: the recovery log and whether the body
// ultimately completed.
type Report struct {
	Incidents []Incident
	Restarts  int  // restore-and-rerun cycles performed
	Completed bool // body returned success on some attempt
}

// restoreError marks a failure of the resume path itself, so the supervisor
// can classify it as a checkpoint problem rather than a run problem.
type restoreError struct {
	dir string
	err error
}

func (e *restoreError) Error() string {
	return fmt.Sprintf("restoring %s: %v", e.dir, e.err)
}
func (e *restoreError) Unwrap() error { return e.err }

// classifyFailure diagnoses one attempt's error. Order matters: restore
// failures and timeouts travel inside rank panics, so the specific classes
// are tested before the generic FailPanic.
func classifyFailure(err error) FailureClass {
	var pe *ErrParticleEscaped
	if errors.As(err, &pe) {
		return FailConfig
	}
	var rp *rankProcErr
	if errors.As(err, &rp) && rp.class == FailConfig {
		return FailConfig
	}
	var re *restoreError
	if errors.As(err, &re) {
		return FailCorruptCheckpoint
	}
	var te *mpi.TimeoutError
	if errors.As(err, &te) {
		return FailHang
	}
	var ae *mpi.AbortError
	if errors.As(err, &ae) {
		return FailAbort
	}
	return FailPanic
}

// RunSupervised runs body under a failure supervisor: it builds a world,
// constructs (or restores) the Simulation on every rank, and calls body to
// drive it. When the attempt fails — a rank panic, a detected hang, an
// abort, a broken resume checkpoint — the supervisor tears the world down,
// classifies the failure, quarantines any damaged checkpoint directory,
// sleeps an exponential backoff, and retries from the newest restorable
// checkpoint (falling back to older ones, and to initial conditions when
// none survives). Steps are deterministic, so a supervised run that resumes
// from a restart-exact checkpoint converges to the bitwise-identical final
// state an uninterrupted run produces.
//
// body must be safe to re-run from a restored Simulation: drive the
// remaining schedule (s.Run), then do terminal work. It runs on every rank.
// The returned Report is valid even when err is non-nil (the run that
// exhausted MaxRestarts is described by its incidents).
//
// The per-incident log is also fed into machine.Counters: each attempt's
// Simulation starts with Counters.Restarts and Counters.CkptQuarantined
// reflecting the supervisor's history, so checkpoints and reports written
// by the run itself carry the campaign's recovery record.
func RunSupervised(cfg Config, opts SupervisorOptions, body func(*Simulation) error) (*Report, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if opts.MaxRestarts == 0 {
		opts.MaxRestarts = 3
	}
	if opts.MaxRestarts < 0 {
		opts.MaxRestarts = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log(fmt.Sprintf(format, args...))
		}
	}
	// The supervisor's own incident journal, alongside the per-rank run
	// journals: the campaign's recovery history survives even when the
	// process dies between attempts. Not a rank product — one file per
	// supervisor, append-only across attempts.
	var incLog *obs.Journal
	if cfg.TraceDir != "" {
		if j, err := obs.OpenJournalFile(filepath.Join(cfg.TraceDir, "journal.supervisor.jsonl")); err == nil {
			incLog = j
			defer incLog.Close()
		} else {
			logf("supervisor: incident journal unavailable: %v", err)
		}
	}
	recordIncident := func(inc Incident) {
		rec := obs.IncidentRecord{
			Kind:        "incident",
			Attempt:     inc.Attempt,
			Class:       inc.Class.String(),
			Resume:      inc.Resume,
			Quarantined: inc.Quarantined,
			BackoffMs:   float64(inc.Backoff) / 1e6,
		}
		if inc.Err != nil {
			rec.Err = inc.Err.Error()
		}
		incLog.Record(rec) // nil-safe
	}

	rep := &Report{}
	resume := opts.ResumeFrom
	quarantined := 0
	var lastErr error
	for attempt := 0; ; attempt++ {
		// Capture plain values for the rank closures: goroutines leaked by a
		// timed-out attempt must not race with the supervisor mutating rep.
		restarts, quar, resumeDir := rep.Restarts, quarantined, resume
		world := mpi.NewWorld(opts.Ranks)
		if opts.OpTimeout > 0 {
			world.SetTimeout(opts.OpTimeout)
		}
		runErr := world.RunDeadline(func(c *mpi.Comm) {
			var s *Simulation
			var err error
			if resumeDir != "" {
				s, err = Restore(c, resumeDir, opts.Mutate)
				if err != nil {
					panic(&restoreError{dir: resumeDir, err: err})
				}
			} else {
				s, err = New(c, cfg)
				if err != nil {
					panic(err)
				}
			}
			s.Counters.Restarts = int64(restarts)
			s.Counters.CkptQuarantined = int64(quar)
			if err := body(s); err != nil {
				panic(err)
			}
		}, opts.Deadline)
		if runErr == nil {
			rep.Completed = true
			return rep, nil
		}
		lastErr = runErr
		// Teardown: release any goroutine an injected hang parked, so a
		// wedged rank drains instead of leaking across attempts.
		fault.Interrupt()

		class := classifyFailure(runErr)
		inc := Incident{Attempt: attempt, Class: class, Err: runErr}
		if class == FailCorruptCheckpoint && resume != "" {
			// The resume dir itself is bad in a way Verify may not catch
			// (meta mismatch, schedule drift): move it aside explicitly.
			if q, err := quarantine(cfg.CheckpointDir, resume); err == nil {
				inc.Quarantined = append(inc.Quarantined, q)
				quarantined++
			}
		}
		if !class.Retryable() || attempt >= opts.MaxRestarts {
			why := "restarts exhausted"
			if !class.Retryable() {
				why = "not retryable"
			}
			rep.Incidents = append(rep.Incidents, inc)
			recordIncident(inc)
			logf("supervisor: attempt %d failed (%s): %v; %s", attempt, class, runErr, why)
			return rep, fmt.Errorf("core: supervised run failed after %d restarts, %s: last failure (%s): %w",
				rep.Restarts, why, class, lastErr)
		}

		// Pick the resume point for the next attempt, quarantining damaged
		// checkpoints as they are discovered.
		next, quars := pickResume(cfg.CheckpointDir)
		inc.Quarantined = append(inc.Quarantined, quars...)
		quarantined += len(quars)
		inc.Resume = next

		backoff := opts.Backoff << attempt
		if backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
		inc.Backoff = backoff
		rep.Incidents = append(rep.Incidents, inc)
		recordIncident(inc)
		from := next
		if from == "" {
			from = "initial conditions"
		}
		logf("supervisor: attempt %d failed (%s): %v; resuming from %s after %v",
			attempt, class, runErr, from, backoff)
		time.Sleep(backoff)
		resume = next
		rep.Restarts++
	}
}

// pickResume scans the cadenced checkpoint root for the newest restorable
// checkpoint — newest first, CRC-verifying each candidate's state container
// — and returns the chosen step directory ("" when none survives — the run
// restarts from initial conditions). Unlike LatestCheckpoint, which merely
// skips damaged directories, every damaged candidate found on the way down
// is quarantined, so a half-written checkpoint from the crash that triggered
// this recovery can never shadow a good older one again. An empty or missing
// root simply yields a fresh start.
func pickResume(root string) (string, []string) {
	var quars []string
	if root == "" {
		return "", nil
	}
	for _, dir := range checkpointDirs(root) {
		gr, err := gio.Open(filepath.Join(dir, StateFile))
		if err == nil {
			err = gr.Verify()
			gr.Close()
		}
		if err == nil {
			return dir, quars
		}
		if q, qerr := quarantine(root, dir); qerr == nil {
			quars = append(quars, q)
		}
	}
	return "", quars
}

// checkpointDirs lists the step%06d directories under root, newest first.
func checkpointDirs(root string) []string {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	type cand struct {
		step int
		dir  string
	}
	var cands []cand
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var k int
		if n, _ := fmt.Sscanf(e.Name(), "step%d", &k); n != 1 {
			continue
		}
		cands = append(cands, cand{k, filepath.Join(root, e.Name())})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].step > cands[j].step })
	dirs := make([]string, len(cands))
	for i, c := range cands {
		dirs[i] = c.dir
	}
	return dirs
}

// quarantine moves a damaged checkpoint step directory into the
// "quarantined" subdirectory of the checkpoint root, so LatestCheckpoint's
// step%d scan can never resume from it again but the bytes survive for a
// post-mortem. Returns the new path.
func quarantine(root, dir string) (string, error) {
	qdir := filepath.Join(root, "quarantined")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, filepath.Base(dir))
	// A re-quarantine of the same step number after a later restart must
	// not fail: make room.
	os.RemoveAll(dst)
	if err := os.Rename(dir, dst); err != nil {
		return "", err
	}
	return dst, nil
}
