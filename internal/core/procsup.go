package core

// The process attempt runner. Where RunSupervised's runner owns goroutine
// ranks inside one address space, SuperviseProcs's owns N OS processes
// connected through the mpi wire transport; both run under the same
// recovery loop (supervise). A rank process reports its own failure through
// the exit-code protocol below — RunRankProcess and ExitCodeFor are the
// child half, classifyExits the parent half — so a kill -9'd worker drives
// exactly the classify → quarantine → resume-from-newest-checkpoint path an
// in-process rank panic does.

import (
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hacc/internal/mpi"
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
// to restore. SuperviseProcs sets it whenever an attempt resumes, so a child
// can gate first-attempt-only behavior (fault arming, injected suicide) on
// its absence.
const EnvResume = "HACC_RESUME"

// The rest of the supervisor→child contract: the recovery history the
// ranks record in machine.Counters. Written by SuperviseProcs and read by
// RunRankProcess only.
const (
	envRestarts    = "HACC_RESTARTS"
	envQuarantined = "HACC_QUARANTINED"
)

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

// RunRankProcess is the life of one rank process under SuperviseProcs (or
// any launcher speaking the mpi wire env contract): join the wire world via
// mpi.ConnectEnv, Start the Simulation — restoring the checkpoint the
// supervisor picked, else restart ("" = initial conditions) — with the
// supervisor's recovery history in its counters, drive body, and exit
// through the exit-code protocol so the parent can classify any failure
// without parsing output. opTimeout bounds every blocking mpi operation (0 =
// off). It never returns.
func RunRankProcess(cfg Config, restart string, mutate func(*Config), opTimeout time.Duration, body func(*Simulation) error) {
	a := attempt{resume: restart}
	if dir := os.Getenv(EnvResume); dir != "" {
		a.resume = dir
	}
	// Unset on a first attempt, where the history is zero.
	a.restarts, _ = strconv.Atoi(os.Getenv(envRestarts))
	a.quarantined, _ = strconv.Atoi(os.Getenv(envQuarantined))
	w, err := mpi.ConnectEnv()
	if err != nil {
		log.Print(err)
		os.Exit(ExitPanic)
	}
	if opTimeout > 0 {
		w.SetTimeout(opTimeout)
	}
	err = w.Run(rankMain(cfg, mutate, a, body))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Printf("rank %s: %v", os.Getenv(mpi.EnvRank), err)
	}
	os.Exit(ExitCodeFor(err))
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
	// mpi.ConnectEnv — RunRankProcess does both.
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

// rankProcErr describes the representative failure of one process attempt,
// already classified from the exit-code protocol.
type rankProcErr struct {
	rank   int
	class  FailureClass
	detail string
}

func (e *rankProcErr) Error() string {
	return fmt.Sprintf("rank process %d failed (%s): %s", e.rank, e.class, e.detail)
}

// SuperviseProcs runs a multi-process wire world under the failure
// supervisor. Each attempt spawns opts.Ranks copies of opts.Command with the
// mpi wire env contract (rank, size, rendezvous socket, transport) plus the
// attempt's resume directory (EnvResume) and recovery history, waits for all
// of them, and classifies any failure from the exit-code protocol: explicit
// protocol codes first, signal deaths and stray statuses as crashes, an
// elapsed AttemptTimeout as a hang. Between attempts the shared recovery
// loop picks the newest restorable checkpoint under opts.CheckpointRoot
// (quarantining damaged ones) and backs off exponentially — the same loop as
// RunSupervised, across a process boundary.
func SuperviseProcs(opts ProcOptions) (*Report, error) {
	if opts.Ranks <= 0 {
		opts.Ranks = 1
	}
	if len(opts.Command) == 0 {
		return nil, fmt.Errorf("core: SuperviseProcs needs a command")
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
	rc := recovery{
		maxRestarts: opts.MaxRestarts,
		backoff:     opts.Backoff,
		backoffMax:  opts.BackoffMax,
		ckptRoot:    opts.CheckpointRoot,
		traceDir:    opts.TraceDir,
		resumeFrom:  opts.ResumeFrom,
		log:         opts.Log,
	}
	return supervise(rc, func(a attempt) error { return runProcAttempt(&opts, a) })
}

// runProcAttempt spawns and waits one world's worth of rank processes,
// returning nil on success or a classifiable error.
func runProcAttempt(opts *ProcOptions, a attempt) error {
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
		if a.resume != "" {
			cmd.Env = append(cmd.Env, EnvResume+"="+a.resume)
		}
		if a.restarts > 0 {
			cmd.Env = append(cmd.Env,
				envRestarts+"="+strconv.Itoa(a.restarts),
				envQuarantined+"="+strconv.Itoa(a.quarantined),
			)
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
	if rp := classifyExits(exits, hung); rp != nil {
		return rp
	}
	return nil
}

// classifyExits folds the per-rank exit statuses into one representative
// failure, or nil when every rank succeeded. When several ranks report
// different classes the root cause wins over the symptom: an unrunnable
// configuration over everything, a corrupt checkpoint or a hang over a
// crash, a crash over the aborts the dying rank's peers observe. An attempt
// cut down by AttemptTimeout is a hang regardless of what the killed
// processes report.
func classifyExits(exits []error, hung bool) *rankProcErr {
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
	if hung {
		if rep == nil {
			return &rankProcErr{rank: -1, class: FailHang, detail: "attempt deadline elapsed"}
		}
		rep.class = FailHang
	}
	return rep
}
