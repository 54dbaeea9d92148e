// Package mpi implements an in-process message-passing runtime modeled on
// MPI. Ranks are goroutines; point-to-point messages are matched on
// (communicator, source, tag) and collectives are implemented with the
// classical distributed algorithms (dissemination barrier, binomial trees,
// recursive doubling, pairwise exchange) so that the communication pattern
// of a program is the same as it would be under a real MPI library.
//
// Point-to-point. Send is eager: the payload is copied into the receiver's
// mailbox (or written to the socket) before Send returns, so the caller's
// buffer is free at once and a send never waits for its receive. Recv
// matches lazily: it takes the first queued message on its (source, tag)
// envelope, blocking until one arrives, and messages on one envelope are
// received in send order. The exchange plans built on this (grid ghosts,
// domain migrate/refresh, the FOF stitch) therefore send every leg in
// Begin and receive every leg in End: the messages land in the peers'
// mailboxes while the ranks compute, which is all the overlap needs, and
// each plan draws one tag per collective from its own Tags sequence so
// collectives in flight at once never match each other's messages.
//
// Agreement and failure. AllOK is the agreement primitive behind collective
// I/O: one rank's local failure becomes one consistent collective outcome,
// and a true result doubles as a completion barrier for file-visibility
// ordering (create before open, write before rename). A panicking rank
// aborts the world and wakes every peer parked in Recv or a collective
// (each surfaces an *AbortError); World.SetTimeout bounds every blocking
// operation so a silently wedged rank is detected as a *TimeoutError rather
// than hanging the world; World.RunDeadline adds an outer wall-clock bound
// for ranks stuck outside mpi calls; Comm.Abort lets a rank take the world
// down deterministically. Send, receive, and collective entry points carry
// fault-injection hooks (internal/fault) that cost one atomic load when no
// plan is armed.
//
// Wire transport. Connect/RunWire build worlds whose ranks live in separate
// OS processes joined by TCP or Unix-domain sockets behind the same API:
// every remote message is one CRC-32C-protected frame (FrameHeaderSize
// bytes of header + the payload's raw memory image), matched on
// (communicator context, source, tag) with the same eager-send /
// lazy-match / FIFO-per-envelope semantics as the mailbox, so the goroutine
// world doubles as the bitwise oracle for the wire world. Rank 0 runs a
// rendezvous over a Unix socket to exchange listener addresses; launchers
// speak the EnvRank/EnvSize/EnvRendezvous/EnvTransport environment contract
// (WireChild detects it, ConnectEnv consumes it). Abort, timeout, and
// fault-injection behavior is transport-independent — a dead peer surfaces
// as the same *AbortError the inproc path produces — and Comm.Stats exposes
// per-process message/byte counters (wire and logical) for collective
// merging at report time. Every data connection's kernel buffers are sized
// to hold a whole transpose leg, so an eager send does not wait on the
// peer's reader, and a received frame lands in a word-aligned buffer that
// Recv hands out as the []T in place, with no second copy.
//
// HACC uses MPI for its long/medium-range force framework; this package is
// the substitute substrate that lets the rest of the code run unmodified at
// "scale" on a single machine and across processes.
package mpi
