package mpi

import (
	"fmt"
	"time"

	"hacc/internal/fault"
	"hacc/internal/obs"
)

// Non-blocking point-to-point API. Sends in this runtime are eager (the
// payload is buffered in the receiver's mailbox at post time, as with
// small-message MPI), so an Isend completes immediately and the sender's
// buffer is free for reuse as soon as the call returns. A posted Irecv
// records the (source, tag) envelope without blocking; the message is
// matched when Wait completes the request, in FIFO order per (source, tag)
// pair. Because ranks are goroutines, deferring the match is what buys
// real overlap: a rank that would sit in a blocking Recv
// keeps computing while its peers' sends land in the mailbox.
//
// Matching at completion time rather than post time departs from strict MPI
// ordering only when two requests for the same (source, tag) envelope are
// completed out of post order; the exchange plans built on this API never do
// that (each leg has a distinct source, and sequenced tags separate
// collectives).

// Request is the handle of a non-blocking operation. The zero Request is
// invalid; requests are produced by Isend/Irecv or initialized in place by
// IrecvInit so plans can own and reuse them without allocating.
type Request struct {
	c       *Comm
	src     int
	tag     int
	recv    bool
	done    bool
	payload any
}

// Isend posts a buffered send of a copy of buf and returns the (already
// complete) request. buf may be reused immediately.
func Isend[T any](c *Comm, dst, tag int, buf []T) Request {
	Send(c, dst, tag, buf)
	return Request{c: c, done: true}
}

// Irecv posts a receive for a message matching (src, tag). src may be
// AnySource and tag may be AnyTag. The call never blocks; complete the
// request with Wait and read the payload with Payload or WaitRecv.
func Irecv(c *Comm, src, tag int) Request {
	var r Request
	IrecvInit(c, src, tag, &r)
	return r
}

// IrecvInit initializes a caller-owned request in place (the allocation-free
// form of Irecv, for persistent plans that reuse request storage across
// collectives). Any previous state of *r is discarded.
func IrecvInit(c *Comm, src, tag int, r *Request) {
	if src != AnySource {
		c.checkRank(src, "source")
	}
	*r = Request{c: c, src: src, tag: tag, recv: true}
}

// Wait blocks until the request completes. For receives the payload becomes
// available via Payload (WaitRecv completes and takes it in one call). Wait
// panics if the world aborted or the world's operation timeout
// (World.SetTimeout) elapsed.
func (r *Request) Wait() {
	if err := r.WaitTimeout(0); err != nil {
		panic(err)
	}
}

// WaitTimeout blocks until the request completes, the world aborts, or the
// timeout elapses, returning the failure as an error instead of panicking.
// A zero timeout falls back to the world's operation timeout (which may
// itself be zero, meaning wait forever). On error the request remains
// incomplete.
func (r *Request) WaitTimeout(timeout time.Duration) error {
	if r.done {
		return nil
	}
	if r.c == nil {
		panic("mpi: Wait on zero Request")
	}
	if inj := fault.Armed(); inj != nil {
		inj.Hit(fault.PointRecv, r.c.worldRank(r.c.rank), -1)
	}
	if timeout <= 0 {
		timeout = r.c.world.Timeout()
	}
	t0 := obs.Begin()
	msg, err := r.c.world.boxes[r.c.worldRank(r.c.rank)].take(r.c.ctx, r.src, r.tag, timeout)
	obs.End(r.c.worldRank(r.c.rank), obs.SpanWait, t0)
	if err != nil {
		return err
	}
	r.payload = msg.payload
	r.done = true
	return nil
}

// Payload returns the received buffer of a completed receive request. It
// panics if the request has not completed or the element type mismatches.
// Send requests return nil.
func Payload[T any](r *Request) []T {
	if !r.done {
		panic("mpi: Payload of incomplete request (call Wait first)")
	}
	if r.payload == nil {
		return nil
	}
	if raw, ok := r.payload.(rawPayload); ok {
		return decodeRaw[T](raw)
	}
	buf, ok := r.payload.([]T)
	if !ok {
		panic(fmt.Sprintf("mpi: Payload type mismatch: got %T", r.payload))
	}
	return buf
}

// WaitRecv completes a receive request and hands its payload over: the
// request keeps no reference to it, so a plan that reuses its requests
// across collectives does not pin the last frame of each leg until the
// next one. Payload on the request returns nil afterwards; Wait followed
// by Payload leaves the payload on the request.
func WaitRecv[T any](r *Request) []T {
	r.Wait()
	buf := Payload[T](r)
	r.payload = nil
	return buf
}
