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
	Err         error        // the error the attempt surfaced
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
	// checkpoint step directory instead of starting from initial conditions
	// (the -restart flag).
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
// are tested before the generic FailPanic. A process attempt arrives already
// classified from the exit-code protocol (*rankProcErr).
func classifyFailure(err error) FailureClass {
	var pe *ErrParticleEscaped
	if errors.As(err, &pe) {
		return FailConfig
	}
	var rp *rankProcErr
	if errors.As(err, &rp) {
		return rp.class
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

// attempt is what the supervisor hands its attempt runner for one try: the
// checkpoint step directory to resume from ("" = initial conditions) and
// the recovery history so far, which the ranks record in machine.Counters.
type attempt struct {
	resume      string
	restarts    int
	quarantined int
}

// recovery is the supervisor loop's policy: the restart budget and backoff
// schedule, the cadenced checkpoint root recovery resumes from, the
// directory for the incident journal, and the first attempt's resume dir.
type recovery struct {
	maxRestarts         int
	backoff, backoffMax time.Duration
	ckptRoot            string
	traceDir            string
	resumeFrom          string
	log                 func(string)
}

// supervise is the one recovery loop behind RunSupervised and
// SuperviseProcs; run is their attempt runner, returning nil on success or
// a classifiable error. It runs attempts until one succeeds, and after each
// failure it classifies the error, quarantines a resume directory that
// failed to restore, picks the newest restorable checkpoint under the root
// (quarantining damaged ones on the way), sleeps a capped exponential
// backoff, and tries again — until a non-retryable class or the restart
// budget ends the run. Every incident goes to the Report, the log, and
// journal.supervisor.jsonl under the trace dir.
func supervise(rc recovery, run func(attempt) error) (*Report, error) {
	if rc.maxRestarts == 0 {
		rc.maxRestarts = 3
	}
	if rc.maxRestarts < 0 {
		rc.maxRestarts = 0
	}
	if rc.backoff <= 0 {
		rc.backoff = 100 * time.Millisecond
	}
	if rc.backoffMax <= 0 {
		rc.backoffMax = 5 * time.Second
	}
	logf := func(format string, args ...any) {
		if rc.log != nil {
			rc.log(fmt.Sprintf(format, args...))
		}
	}
	// The supervisor's own incident journal, alongside the per-rank run
	// journals: the campaign's recovery history survives even when the
	// process dies between attempts. Not a rank product — one file per
	// supervisor, append-only across attempts.
	var incLog *obs.Journal
	if rc.traceDir != "" {
		if j, err := obs.OpenJournalFile(filepath.Join(rc.traceDir, "journal.supervisor.jsonl")); err == nil {
			incLog = j
			defer incLog.Close()
		} else {
			logf("supervisor: incident journal unavailable: %v", err)
		}
	}

	rep := &Report{}
	resume := rc.resumeFrom
	quarantined := 0
	backoff := rc.backoff
	for i := 0; ; i++ {
		err := run(attempt{resume, rep.Restarts, quarantined})
		if err == nil {
			rep.Completed = true
			return rep, nil
		}
		class := classifyFailure(err)
		inc := Incident{Attempt: i, Class: class, Err: err}
		if class == FailCorruptCheckpoint && resume != "" {
			// The resume dir itself is bad in a way Verify may not catch
			// (meta mismatch, schedule drift): move it aside explicitly.
			if q, qerr := quarantine(resume); qerr == nil {
				inc.Quarantined = append(inc.Quarantined, q)
			}
		}
		retry := class.Retryable() && i < rc.maxRestarts
		if retry {
			var quars []string
			inc.Resume, quars = pickResume(rc.ckptRoot)
			inc.Quarantined = append(inc.Quarantined, quars...)
			inc.Backoff = min(backoff, rc.backoffMax)
		}
		quarantined += len(inc.Quarantined)
		rep.Incidents = append(rep.Incidents, inc)
		incLog.Record(obs.IncidentRecord{ // nil-safe
			Kind:        "incident",
			Attempt:     inc.Attempt,
			Class:       inc.Class.String(),
			Err:         err.Error(),
			Resume:      inc.Resume,
			Quarantined: inc.Quarantined,
			BackoffMs:   float64(inc.Backoff) / 1e6,
		})

		if !retry {
			why := "restarts exhausted"
			if !class.Retryable() {
				why = "not retryable"
			}
			logf("supervisor: attempt %d failed (%s): %v; %s", i, class, err, why)
			return rep, fmt.Errorf("core: supervised run failed after %d restarts, %s: last failure (%s): %w",
				rep.Restarts, why, class, err)
		}
		from := inc.Resume
		if from == "" {
			from = "initial conditions"
		}
		logf("supervisor: attempt %d failed (%s): %v; resuming from %s after %v",
			i, class, err, from, inc.Backoff)
		time.Sleep(inc.Backoff)
		backoff = 2 * inc.Backoff
		resume = inc.Resume
		rep.Restarts++
	}
}

// RunSupervised runs body under the failure supervisor on an in-process
// goroutine world: each attempt builds a world, starts the Simulation on
// every rank (Start), and calls body to drive it. When the attempt fails — a
// rank panic, a detected hang, an abort, a broken resume checkpoint — the
// world is torn down and the shared recovery loop classifies the failure,
// quarantines any damaged checkpoint directory, backs off, and retries from
// the newest restorable checkpoint under cfg.CheckpointDir (falling back to
// older ones, and to initial conditions when none survives). Steps are
// deterministic, so a supervised run that resumes from a restart-exact
// checkpoint converges to the bitwise-identical final state an uninterrupted
// run produces.
//
// body must be safe to re-run from a restored Simulation: drive the
// remaining schedule (s.Run), then do terminal work. It runs on every rank.
// The returned Report is valid even when err is non-nil (the run that
// exhausted MaxRestarts is described by its incidents).
//
// The recovery history is also fed into machine.Counters: every recovery
// attempt's Simulation starts with Counters.Restarts and
// Counters.CkptQuarantined reflecting the supervisor's history, so
// checkpoints and reports written by the run itself carry the campaign's
// recovery record.
func RunSupervised(cfg Config, opts SupervisorOptions, body func(*Simulation) error) (*Report, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	rc := recovery{
		maxRestarts: opts.MaxRestarts,
		backoff:     opts.Backoff,
		backoffMax:  opts.BackoffMax,
		ckptRoot:    cfg.CheckpointDir,
		traceDir:    cfg.TraceDir,
		resumeFrom:  opts.ResumeFrom,
		log:         opts.Log,
	}
	// The rank closure sees the attempt as a plain value, so goroutines
	// leaked by a timed-out attempt never race with the loop.
	return supervise(rc, func(a attempt) error {
		world := mpi.NewWorld(opts.Ranks)
		if opts.OpTimeout > 0 {
			world.SetTimeout(opts.OpTimeout)
		}
		err := world.RunDeadline(rankMain(cfg, opts.Mutate, a, body), opts.Deadline)
		if err != nil {
			// Teardown: release any goroutine an injected hang parked, so a
			// wedged rank drains instead of leaking across attempts.
			fault.Interrupt()
		}
		return err
	})
}

// Start builds this rank's Simulation for one attempt: New from cfg, or —
// when resume names a checkpoint step directory — Restore from it with
// mutate applied. A restore failure is marked as a corrupt checkpoint, so a
// supervisor quarantines the directory instead of retrying it. Collective.
func Start(c *mpi.Comm, cfg Config, resume string, mutate func(*Config)) (*Simulation, error) {
	if resume == "" {
		return New(c, cfg)
	}
	s, err := Restore(c, resume, mutate)
	if err != nil {
		return nil, &restoreError{dir: resume, err: err}
	}
	return s, nil
}

// rankMain is one rank's share of an attempt under either runner: Start
// the Simulation, record the supervisor's history in its counters, and
// drive body. Failures panic, so the world's recovery path surfaces them.
func rankMain(cfg Config, mutate func(*Config), a attempt, body func(*Simulation) error) func(*mpi.Comm) {
	return func(c *mpi.Comm) {
		s, err := Start(c, cfg, a.resume, mutate)
		if err != nil {
			panic(err)
		}
		// A first attempt keeps the counters New or Restore set, so a run
		// resumed by hand keeps the recovery record its checkpoint carries.
		if a.restarts > 0 {
			s.Counters.Restarts = int64(a.restarts)
			s.Counters.CkptQuarantined = int64(a.quarantined)
		}
		if err := body(s); err != nil {
			panic(err)
		}
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
		if q, qerr := quarantine(dir); qerr == nil {
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
// "quarantined" subdirectory beside it — step directories sit directly
// under their checkpoint root — so LatestCheckpoint's step%d scan can never
// resume from it again but the bytes survive for a post-mortem. Returns the
// new path.
func quarantine(dir string) (string, error) {
	qdir := filepath.Join(filepath.Dir(dir), "quarantined")
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
