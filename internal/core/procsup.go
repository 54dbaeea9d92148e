package core

// Process-level supervision: the multi-process analogue of RunSupervised.
// Where RunSupervised owns goroutine ranks inside one address space,
// SuperviseProcs owns N OS processes connected through the mpi wire
// transport. The failure taxonomy is shared — a rank process reports its own
// failure through the exit-code protocol below (ExitCodeFor is the child
// half, classifyExits the parent half), and the recovery loop reuses the
// same pickResume/quarantine/backoff machinery, so a kill -9'd worker drives
// exactly the classify → quarantine → resume-from-newest-checkpoint path the
// in-process supervisor does.

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hacc/internal/mpi"
	"hacc/internal/obs"
)

// Exit-code protocol between a supervised rank process and its parent. A
// child that fails classifies its own error (ExitCodeFor) so the parent can
// reconstruct the FailureClass without parsing stderr; any other non-zero
// status — including death by signal, the kill -9 case — reads as a rank
// crash (FailPanic), matching how an uncaught panic exits.
const (
	ExitOK                = 0
	ExitPanic             = 10
	ExitHang              = 11
	ExitAbort             = 12
	ExitCorruptCheckpoint = 13
	ExitConfig            = 14
)

// EnvResume tells a respawned rank process which checkpoint step directory
// to restore. It is set by SuperviseProcs on recovery attempts only, so a
// child can gate first-attempt-only behavior (fault arming, injected
// suicide) on its absence.
const EnvResume = "HACC_RESUME"

// ClassifyFailure diagnoses one attempt's error into the supervisor's
// failure taxonomy — the exported form of the classifier RunSupervised uses,
// for rank processes and launchers that classify on their own side of a
// process boundary.
func ClassifyFailure(err error) FailureClass { return classifyFailure(err) }

// ExitCodeFor maps a rank-process error onto the exit-code protocol: the
// child half of the classification handshake.
func ExitCodeFor(err error) int {
	if err == nil {
		return ExitOK
	}
	switch classifyFailure(err) {
	case FailHang:
		return ExitHang
	case FailAbort:
		return ExitAbort
	case FailCorruptCheckpoint:
		return ExitCorruptCheckpoint
	case FailConfig:
		return ExitConfig
	default:
		return ExitPanic
	}
}

// MarkRestoreFailure wraps a checkpoint-restore error so ClassifyFailure and
// ExitCodeFor report FailCorruptCheckpoint — the tag a rank process applies
// before exiting, mirroring what RunSupervised's rank closure panics with.
func MarkRestoreFailure(dir string, err error) error {
	return &restoreError{dir: dir, err: err}
}

// ProcOptions configures SuperviseProcs.
type ProcOptions struct {
	// Ranks is the world size: one OS process per rank.
	Ranks int
	// Transport selects the wire socket family ("tcp", "unix", or "auto").
	Transport string
	// Command is the argv every rank process runs (the launcher re-execs
	// itself here). The wire env contract is appended to each child's
	// environment; the command must detect it (mpi.WireChild) and join via
	// mpi.ConnectEnv.
	Command []string
	// Env is extra environment appended to every child.
	Env []string

	// MaxRestarts bounds recovery attempts after the first try (0 means the
	// default of 3; negative means supervised classification but no retry).
	MaxRestarts int
	// Backoff is the initial restart delay, doubled each incident up to
	// BackoffMax. Defaults: 100ms and 5s.
	Backoff    time.Duration
	BackoffMax time.Duration
	// AttemptTimeout bounds one attempt's wall clock; when it elapses the
	// survivors are killed and the attempt is classified as a hang (the
	// process-level analogue of RunDeadline). 0 means no bound.
	AttemptTimeout time.Duration
	// GraceKill is how long survivors get to notice a dead peer (EOF on its
	// connection → self-abort → ExitAbort) before the parent kills them.
	// Defaults to 10s.
	GraceKill time.Duration

	// CheckpointRoot is the cadenced checkpoint directory recovery resumes
	// from (newest restorable step, damaged ones quarantined). Empty means
	// every retry restarts from initial conditions.
	CheckpointRoot string
	// TraceDir, when set, receives the supervisor's incident journal
	// (journal.supervisor.jsonl) alongside the rank processes' own trace and
	// journal files — the same layout the in-process supervisor produces.
	TraceDir string
	// ResumeFrom pre-seeds the first attempt's resume directory.
	ResumeFrom string

	// Stdout receives rank 0's stdout (default os.Stdout); Stderr receives
	// every rank's stderr (default os.Stderr).
	Stdout io.Writer
	Stderr io.Writer
	// Log, when non-nil, receives one line per supervisor event.
	Log func(string)
}

// rankProcErr describes the representative failure of one attempt.
type rankProcErr struct {
	rank   int
	class  FailureClass
	detail string
}

func (e *rankProcErr) Error() string {
	return fmt.Sprintf("rank process %d failed (%s): %s", e.rank, e.class, e.detail)
}

// SuperviseProcs runs one multi-process wire-world attempt after another
// until the world completes or restarts are exhausted. Each attempt spawns
// opts.Ranks copies of opts.Command with the mpi wire env contract (rank,
// size, rendezvous socket, transport) plus EnvResume on recovery attempts,
// waits for all of them, and classifies any failure from the exit-code
// protocol: explicit protocol codes first, signal deaths and stray statuses
// as crashes, an elapsed AttemptTimeout as a hang. Between attempts it picks
// the newest restorable checkpoint under opts.CheckpointRoot (quarantining
// damaged ones) and backs off exponentially — the same recovery loop as
// RunSupervised, across a process boundary.
func SuperviseProcs(opts ProcOptions) (*Report, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if len(opts.Command) == 0 {
		return nil, fmt.Errorf("core: SuperviseProcs needs a command")
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
	if opts.GraceKill <= 0 {
		opts.GraceKill = 10 * time.Second
	}
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log(fmt.Sprintf(format, args...))
		}
	}
	var incLog *obs.Journal
	if opts.TraceDir != "" {
		if j, err := obs.OpenJournalFile(filepath.Join(opts.TraceDir, "journal.supervisor.jsonl")); err == nil {
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
	for attempt := 0; ; attempt++ {
		runErr := runProcAttempt(&opts, resume)
		if runErr == nil {
			rep.Completed = true
			return rep, nil
		}
		class := classifyFailure(runErr)
		inc := Incident{Attempt: attempt, Class: class, Err: runErr}
		if class == FailCorruptCheckpoint && resume != "" {
			if q, err := quarantine(opts.CheckpointRoot, resume); err == nil {
				inc.Quarantined = append(inc.Quarantined, q)
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
			return rep, fmt.Errorf("core: supervised procs failed after %d restarts, %s: last failure (%s): %w",
				rep.Restarts, why, class, runErr)
		}
		next, quars := pickResume(opts.CheckpointRoot)
		inc.Quarantined = append(inc.Quarantined, quars...)
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

// runProcAttempt spawns and waits one world's worth of rank processes,
// returning nil on success or a classifiable error.
func runProcAttempt(opts *ProcOptions, resume string) error {
	scratch, err := os.MkdirTemp("", "hacc-wire")
	if err != nil {
		return fmt.Errorf("core: wire scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	rdv := filepath.Join(scratch, "rdv.sock")

	procs := make([]*exec.Cmd, opts.Ranks)
	for r := 0; r < opts.Ranks; r++ {
		cmd := exec.Command(opts.Command[0], opts.Command[1:]...)
		cmd.Env = append(os.Environ(), opts.Env...)
		cmd.Env = append(cmd.Env,
			mpi.EnvRank+"="+strconv.Itoa(r),
			mpi.EnvSize+"="+strconv.Itoa(opts.Ranks),
			mpi.EnvRendezvous+"="+rdv,
			mpi.EnvTransport+"="+opts.Transport,
		)
		if resume != "" {
			cmd.Env = append(cmd.Env, EnvResume+"="+resume)
		}
		cmd.Stderr = opts.Stderr
		if r == 0 {
			cmd.Stdout = opts.Stdout
		}
		procs[r] = cmd
	}
	kill := func(from int) {
		for _, p := range procs[from:] {
			if p.Process != nil && p.ProcessState == nil {
				p.Process.Kill()
			}
		}
	}
	type exit struct {
		rank int
		err  error
	}
	done := make(chan exit, opts.Ranks)
	for r, cmd := range procs {
		if err := cmd.Start(); err != nil {
			kill(0)
			for q := 0; q < r; q++ {
				procs[q].Wait()
			}
			return fmt.Errorf("core: spawn rank %d: %w", r, err)
		}
		go func(r int, cmd *exec.Cmd) { done <- exit{r, cmd.Wait()} }(r, cmd)
	}

	var attemptC, graceC <-chan time.Time
	if opts.AttemptTimeout > 0 {
		attemptC = time.After(opts.AttemptTimeout)
	}
	hung := false
	exits := make([]error, opts.Ranks)
	for remaining := opts.Ranks; remaining > 0; {
		select {
		case e := <-done:
			exits[e.rank] = e.err
			remaining--
			if e.err != nil && graceC == nil {
				// First failure: give the peers a moment to observe the lost
				// connection and exit with their own classification, then
				// sweep up whoever is left.
				graceC = time.After(opts.GraceKill)
			}
		case <-graceC:
			graceC = nil
			kill(0)
		case <-attemptC:
			attemptC = nil
			hung = true
			kill(0)
		}
	}
	return classifyExits(exits, hung)
}

// classifyExits folds the per-rank exit statuses into one representative
// error, or nil when every rank succeeded. When several ranks report
// different classes the root cause wins over the symptom: an unrunnable
// configuration over everything, a corrupt checkpoint or a hang over a
// crash, a crash over the aborts the dying rank's peers observe. An attempt
// cut down by AttemptTimeout is a hang regardless of what the killed
// processes report.
func classifyExits(exits []error, hung bool) error {
	best := -1
	prio := func(c FailureClass) int {
		switch c {
		case FailConfig:
			return 4
		case FailCorruptCheckpoint:
			return 3
		case FailHang:
			return 2
		case FailPanic:
			return 1
		default:
			return 0
		}
	}
	var rep *rankProcErr
	for r, err := range exits {
		if err == nil {
			continue
		}
		class, detail := FailPanic, err.Error()
		if ee, ok := err.(*exec.ExitError); ok {
			switch ee.ExitCode() {
			case ExitHang:
				class = FailHang
			case ExitAbort:
				class = FailAbort
			case ExitCorruptCheckpoint:
				class = FailCorruptCheckpoint
			case ExitConfig:
				class = FailConfig
			}
			// ExitPanic, signal deaths (ExitCode -1), and any stray status
			// stay FailPanic.
		}
		if p := prio(class); p > best {
			best = p
			rep = &rankProcErr{rank: r, class: class, detail: detail}
		}
	}
	if rep == nil {
		if hung {
			return &rankProcErr{rank: -1, class: FailHang, detail: "attempt deadline elapsed"}
		}
		return nil
	}
	if hung {
		rep.class = FailHang
	}
	// Wrap so classifyFailure recovers the class: reuse the same sentinel
	// error types the in-process path produces.
	switch rep.class {
	case FailHang:
		return fmt.Errorf("core: %w: %v", &mpi.TimeoutError{Rank: rep.rank}, rep)
	case FailAbort:
		return fmt.Errorf("core: %w: %v", &mpi.AbortError{Rank: rep.rank, Reason: rep.detail}, rep)
	case FailCorruptCheckpoint:
		return fmt.Errorf("core: %w", &restoreError{dir: "(child)", err: rep})
	default:
		return fmt.Errorf("core: %w", rep)
	}
}
