// Command haccmux launches N copies of a command as the ranks of one
// multi-process wire world — a minimal mpirun for this runtime. Each child
// receives the mpi environment contract (HACC_WIRE_RANK, HACC_WIRE_SIZE,
// HACC_WIRE_RENDEZVOUS, HACC_WIRE_TRANSPORT); a command detects wire mode
// with mpi.WireChild and joins via mpi.ConnectEnv. Child failures are
// classified through the supervisor exit-code protocol (10 = crash, 11 =
// hang, 12 = abort, 13 = corrupt checkpoint, 14 = config; a signal death
// reads as a crash), and with -max-restarts N the world is restarted up to N
// times from the newest restorable checkpoint under -ckpt-root, damaged ones
// quarantined — core.SuperviseProcs, the core supervisor's process runner.
//
// Examples:
//
//	haccmux -n 4 -- haccsim -np 32 -steps 8
//	haccmux -n 4 -transport tcp -max-restarts 3 -ckpt-root ckpt -- \
//	        haccsim -np 32 -steps 8 -ckpt-dir ckpt -ckpt-every 2
package main

import (
	"flag"
	"log"
	"time"

	"hacc/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("haccmux: ")
	var (
		n           = flag.Int("n", 2, "world size: one OS process per rank")
		transport   = flag.String("transport", "auto", "wire socket family: tcp|unix|auto")
		maxRestarts = flag.Int("max-restarts", 0, "restart the world from the newest checkpoint up to N times (0 = no retry)")
		ckptRoot    = flag.String("ckpt-root", "", "cadenced checkpoint root recovery resumes from")
		deadline    = flag.Duration("deadline", 0, "wall-clock bound per attempt; elapsing classifies as a hang (0 = none)")
		grace       = flag.Duration("grace", 0, "time survivors get to self-abort after a peer dies before being killed (default 10s)")
		traceDir    = flag.String("trace", "", "write the supervisor's incident journal under this directory (pass the same dir to the command's own -trace for rank timelines)")
	)
	flag.Parse()
	cmd := flag.Args()
	if *n < 1 {
		log.Fatalf("-n %d must be ≥1", *n)
	}
	if len(cmd) == 0 {
		log.Fatal("no command given (usage: haccmux -n N [flags] -- cmd args...)")
	}
	switch *transport {
	case "tcp", "unix", "auto":
	default:
		log.Fatalf("unknown -transport %q (want tcp|unix|auto)", *transport)
	}

	restarts := *maxRestarts
	if restarts <= 0 {
		restarts = -1
	}
	start := time.Now()
	rep, err := core.SuperviseProcs(core.ProcOptions{
		Ranks:          *n,
		Transport:      *transport,
		Command:        cmd,
		MaxRestarts:    restarts,
		AttemptTimeout: *deadline,
		GraceKill:      *grace,
		CheckpointRoot: *ckptRoot,
		TraceDir:       *traceDir,
		Log:            func(line string) { log.Print(line) },
	})
	for _, inc := range rep.Incidents {
		log.Printf("incident: attempt %d failed (%s); resumed from %q after %v",
			inc.Attempt, inc.Class, inc.Resume, inc.Backoff)
	}
	if err != nil {
		log.Fatal(err)
	}
	if rep.Restarts > 0 {
		log.Printf("world completed after %d restart(s) in %v", rep.Restarts, time.Since(start).Round(time.Millisecond))
	}
}
