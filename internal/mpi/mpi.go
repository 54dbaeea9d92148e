package mpi

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hacc/internal/fault"
	"hacc/internal/obs"
)

// TimeoutError reports a blocking operation that exceeded the world's
// operation timeout (see World.SetTimeout) or a Run that exceeded its
// deadline (see RunDeadline). It is how a wedged rank — one that stopped
// sending without panicking — surfaces as a classifiable failure instead of
// blocking the world forever.
type TimeoutError struct {
	Rank    int           // rank whose wait timed out; -1 for a whole-world deadline
	Src     int           // source rank the wait was matching (AnySource = any)
	Tag     int           // tag the wait was matching (AnyTag = any)
	Timeout time.Duration // the limit that was exceeded
}

func (e *TimeoutError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: world deadline %v exceeded", e.Timeout)
	}
	return fmt.Sprintf("mpi: rank %d timed out after %v waiting for message src=%d tag=%d",
		e.Rank, e.Timeout, e.Src, e.Tag)
}

// AbortError reports that the world was aborted — by a rank panicking, by an
// explicit Comm.Abort, by a Run deadline, or by a lost wire connection —
// while the failing operation was blocked. Reason carries the cause recorded
// at abort time.
type AbortError struct {
	Rank   int // rank that observed the abort (not necessarily the cause)
	Src    int
	Tag    int
	Reason string
}

func (e *AbortError) Error() string {
	reason := e.Reason
	if reason == "" {
		reason = "world aborted"
	}
	return fmt.Sprintf("mpi: rank %d: %s (while waiting for message src=%d tag=%d)",
		e.Rank, reason, e.Src, e.Tag)
}

// AnySource matches a message from any source rank in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// message is a single in-flight point-to-point message.
type message struct {
	ctx     int64
	src     int
	tag     int
	payload any   // a slice owned by the receiver, or a rawPayload off the wire
	sentNs  int64 // sender's wall-clock UnixNano at frame write; 0 for inproc delivery
}

// mailbox holds pending messages destined for one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	aborted bool
	reason  string         // why the world aborted, for error messages
	rank    int            // world rank this mailbox belongs to
	lat     *obs.Histogram // wire send→match latency sink (world-shared; may be nil)
}

func newMailbox(rank int) *mailbox {
	m := &mailbox{rank: rank}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.pending = append(m.pending, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) abort(reason string) {
	m.mu.Lock()
	m.aborted = true
	m.reason = reason
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes and returns the first message matching (ctx, src, tag),
// blocking until one arrives. It returns an *AbortError if the world
// aborted, or a *TimeoutError if timeout > 0 elapses without a match — a
// wedged peer is detected here rather than hanging the caller forever.
func (m *mailbox) take(ctx int64, src, tag int, timeout time.Duration) (message, error) {
	var deadline time.Time
	var alarm *time.Timer
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// cond.Wait cannot time out on its own; an external timer wakes the
		// waiters so the deadline check below runs.
		alarm = time.AfterFunc(timeout, m.cond.Broadcast)
		defer alarm.Stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.aborted {
			return message{}, &AbortError{Rank: m.rank, Src: src, Tag: tag, Reason: m.reason}
		}
		if msg, ok := m.match(ctx, src, tag); ok {
			return msg, nil
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return message{}, &TimeoutError{Rank: m.rank, Src: src, Tag: tag, Timeout: timeout}
		}
		m.cond.Wait()
	}
}

// match removes and returns the first pending message matching
// (ctx, src, tag), clearing the slot the removal vacates so the queue's
// spare capacity pins no payload. Caller holds m.mu. Wire-delivered
// messages carry the sender's wall-clock timestamp; the send→match delta
// is the wire latency a receiver actually experienced (transport plus any
// time the message sat unmatched), recorded here so every Recv and
// collective leg feeds the histogram without instrumenting each call site.
// Wall clocks across processes can skew; a negative delta clamps to zero
// rather than corrupting the distribution.
func (m *mailbox) match(ctx int64, src, tag int) (message, bool) {
	for i, msg := range m.pending {
		if msg.ctx != ctx {
			continue
		}
		if src != AnySource && msg.src != src {
			continue
		}
		if tag != AnyTag && msg.tag != tag {
			continue
		}
		m.pending = slices.Delete(m.pending, i, i+1)
		if msg.sentNs != 0 && m.lat != nil {
			d := time.Now().UnixNano() - msg.sentNs
			if d < 0 {
				d = 0
			}
			m.lat.Observe(d)
		}
		return msg, true
	}
	return message{}, false
}

// CommStats is one rank's point-to-point send accounting. Msgs and Bytes
// count every send posted by the rank with exact payload bytes; WireMsgs and
// WireBytes count the subset that crossed a socket to a remote process. The
// on-wire framing overhead is deterministic — FrameHeaderSize bytes per wire
// message — so total socket traffic is WireBytes + FrameHeaderSize·WireMsgs.
type CommStats struct {
	Msgs, Bytes, WireMsgs, WireBytes int64
}

// Add accumulates another rank's statistics.
func (s *CommStats) Add(o CommStats) {
	s.Msgs += o.Msgs
	s.Bytes += o.Bytes
	s.WireMsgs += o.WireMsgs
	s.WireBytes += o.WireBytes
}

// commStat is the internal per-rank counter slot. Each slot is written only
// by its own rank's goroutine and read only by that goroutine (reports merge
// slots collectively, each rank contributing its own), so plain fields are
// safe — this is the single-writer discipline that also holds when ranks
// live in different OS processes and share no memory at all. The padding
// keeps neighboring ranks' slots off one cache line in the in-process world.
type commStat struct {
	st CommStats
	_  [4]int64
}

// World is a set of ranks that can communicate. In the in-process (inproc)
// transport every rank is a goroutine and every mailbox is local; behind a
// wire transport (see Connect) exactly the local ranks have mailboxes and
// remote ranks are reached through framed messages on sockets.
type World struct {
	size     int
	boxes    []*mailbox // indexed by world rank; nil for ranks hosted remotely
	local    []int      // world ranks hosted in this process
	tr       *wireTransport
	sent     []commStat // per-rank send accounting, indexed by world rank
	aborted  atomic.Bool
	abortCh  chan struct{}         // closed once on abort; wakes RunDeadline early
	firstErr atomic.Pointer[error] // first rank failure of the current Run
	timeout  atomic.Int64          // per-blocking-op limit in nanoseconds; 0 = none

	// Bytes moved through point-to-point sends posted by local ranks, for
	// bandwidth accounting. Process-local; see Comm.Stats for the per-rank
	// single-writer counters that merge across processes.
	BytesSent atomic.Int64
	// Number of point-to-point messages posted by local ranks.
	MsgsSent atomic.Int64

	metrics *obs.Registry  // world-scoped metric registry (never nil)
	wireLat *obs.Histogram // wire send→match latency in ns, local mailboxes only
}

// initMetrics sets up the world's metric registry and the wire-latency
// histogram shared by every local mailbox. Every rank's histogram uses
// obs.LatencyBuckets, so per-process counts merge with one SumI64 reduction
// (see WireLatencySummary).
func (w *World) initMetrics() {
	w.metrics = obs.NewRegistry()
	w.wireLat = w.metrics.Histogram("wire.latency_ns", obs.LatencyBuckets)
	for _, b := range w.boxes {
		if b != nil {
			b.lat = w.wireLat
		}
	}
}

// Metrics returns the world's metric registry. It always exists; the wire
// transport feeds "wire.latency_ns" and "wire.sockbuf_bytes" (the least
// socket send buffer the kernel granted over this process's data
// connections), and callers may register their own run-level metrics
// alongside.
func (w *World) Metrics() *obs.Registry { return w.metrics }

// NewWorld creates a world with the given number of ranks, all hosted in
// this process as goroutines (the inproc reference transport).
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, abortCh: make(chan struct{})}
	w.boxes = make([]*mailbox, size)
	w.local = make([]int, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(i)
		w.local[i] = i
	}
	w.sent = make([]commStat, size)
	w.initMetrics()
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Wire reports whether this world reaches any rank over a wire transport.
func (w *World) Wire() bool { return w.tr != nil }

// SetTimeout bounds every subsequent blocking operation (Recv and
// collective legs) on this world: a wait that exceeds d panics with a
// *TimeoutError, which aborts the world and surfaces from Run unless the
// rank recovers it. Zero disables
// the limit (the default). The limit must comfortably exceed the worst-case
// compute imbalance between ranks, or healthy-but-slow peers will be
// misdiagnosed as hung.
func (w *World) SetTimeout(d time.Duration) { w.timeout.Store(int64(d)) }

// Timeout returns the current per-operation timeout (zero = none).
func (w *World) Timeout() time.Duration { return time.Duration(w.timeout.Load()) }

// abortWith wakes all blocked receivers with an error carrying reason and,
// over a wire transport, broadcasts the abort to every peer process so the
// whole distributed world tears down with one consistent reason.
func (w *World) abortWith(reason string) { w.abortInternal(reason, true) }

// abortInternal is abortWith with control over wire propagation: aborts
// received from the wire (an abort frame, a lost connection) are applied
// locally only — every process observes the failure through its own
// connections, so re-broadcasting would only echo.
func (w *World) abortInternal(reason string, broadcast bool) {
	if w.aborted.Swap(true) {
		return
	}
	for _, b := range w.boxes {
		if b != nil {
			b.abort(reason)
		}
	}
	close(w.abortCh)
	if w.tr != nil {
		if broadcast {
			w.tr.broadcastAbort(reason)
		}
		w.tr.wake()
	}
}

// Run executes fn concurrently on every local rank of the world and waits
// for them to finish. For an inproc world that is every rank; behind a wire
// transport it is this process's rank. If any rank panics, the remaining
// ranks are aborted and Run returns an error describing the first panic;
// panic values that are errors (an injected fault.Crash, an *AbortError, a
// *TimeoutError) are wrapped so callers can classify them with errors.As.
// Run may be called again on the same world only if the previous call
// returned nil.
func (w *World) Run(fn func(c *Comm)) error {
	var wg sync.WaitGroup
	w.firstErr.Store(nil)
	firstErr := &w.firstErr
	for _, r := range w.local {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					var err error
					if e, ok := p.(error); ok {
						err = fmt.Errorf("mpi: rank %d: %w", rank, e)
					} else {
						err = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					}
					firstErr.CompareAndSwap(nil, &err)
					w.abortWith(fmt.Sprintf("world aborted: rank %d failed: %v", rank, p))
				}
			}()
			fn(&Comm{world: w, ctx: 0, rank: rank, ranks: nil})
		}(r)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// RunDeadline is Run with a wall-clock bound on the whole world. If the
// ranks do not all finish within d, the world is aborted (waking every rank
// blocked in a receive or collective) and RunDeadline returns a
// *TimeoutError after a short grace period. Ranks wedged outside mpi calls
// — spinning in compute, or parked by an injected hang — cannot be
// preempted; their goroutines are abandoned and drain when whatever blocks
// them releases (the fault injector's Interrupt, typically). The abandoned
// runner recovers their eventual panics, so a leak never crashes the
// process.
func (w *World) RunDeadline(fn func(c *Comm), d time.Duration) error {
	if d <= 0 {
		return w.Run(fn)
	}
	done := make(chan error, 1) // buffered: the runner must not leak blocked
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("mpi: run panicked: %v", p)
			}
		}()
		done <- w.Run(fn)
	}()
	grace := d / 4
	if grace < 100*time.Millisecond {
		grace = 100 * time.Millisecond
	}
	if grace > 2*time.Second {
		grace = 2 * time.Second // abort wakes survivors immediately; don't linger
	}
	select {
	case err := <-done:
		return err
	case <-w.abortCh:
		// A rank already failed (panic, per-op timeout, explicit Abort) and
		// the world is tearing down — no reason to sleep until the deadline.
		// Give the survivors a grace period to drain; if a wedged rank keeps
		// Run from returning, report the recorded first failure so the caller
		// can still classify it.
		select {
		case err := <-done:
			return err
		case <-time.After(grace):
			if e := w.firstErr.Load(); e != nil {
				return *e
			}
			return &TimeoutError{Rank: -1, Src: AnySource, Tag: AnyTag, Timeout: d}
		}
	case <-time.After(d):
	}
	w.abortWith(fmt.Sprintf("world aborted: deadline %v exceeded", d))
	select {
	case <-done:
		// The ranks drained once woken; still report the deadline — the run
		// did not complete, it was cut short.
	case <-time.After(grace):
		// Truly wedged goroutines are leaked; see doc comment.
	}
	return &TimeoutError{Rank: -1, Src: AnySource, Tag: AnyTag, Timeout: d}
}

// Run is a convenience that creates a world of the given size and runs fn.
func Run(size int, fn func(c *Comm)) error {
	return NewWorld(size).Run(fn)
}

// Comm is a communicator: a view of a subset of world ranks with a private
// message context. The zero Comm is not valid; communicators are obtained
// from World.Run and Comm.Split.
type Comm struct {
	world *World
	ctx   int64
	rank  int   // rank within this communicator
	ranks []int // world ranks of the members; nil means identity (world comm)
	seq   int64 // per-comm split sequence counter (same on all members)
	plans int   // plans numbered by NewTags (same on all members)
}

// Plan tags. A persistent exchange plan (a pfft redistribution, grid's
// ghost exchanger among them, the domain particle exchange, the FOF
// stitch) draws the tag of every collective it posts from a sequence of
// its own. The plan's ID — its rank in the communicator's plan numbering,
// which agrees on every member because plans are built in the same
// collective order — selects a block
// of 1<<planSeqBits tags; the sequence cycles through the block, so two
// collectives of one plan in flight at once (a deferred refresh beside the
// next migrate) match their own messages, and no two plans on one
// communicator share a tag. Plan tags are positive int32 values (a wire
// frame carries the tag as a sign-extended u32) at or above planTagBase,
// so they meet neither the negative collective tags nor a fixed user tag
// below it.
const (
	planTagBase = 1 << 20
	planSeqBits = 12
	maxPlans    = (1<<31 - planTagBase) >> planSeqBits
)

// Tags is one plan's tag sequence (see planTagBase).
type Tags struct{ base, seq int }

// NewTags numbers the next plan built on this rank's view of c and returns
// its tag sequence. Like Split, it is called from the rank's own goroutine.
// It panics once the tag field holds no further plan ID: a wrapped ID would
// share its tags with a live plan.
func (c *Comm) NewTags() Tags {
	if c.plans >= maxPlans {
		panic(fmt.Sprintf("mpi: communicator exhausted its %d plan tag blocks", maxPlans))
	}
	t := Tags{base: planTagBase + c.plans<<planSeqBits}
	c.plans++
	return t
}

// Next returns the tag of the plan's next collective. Every member calls
// it at the same collective, so the tags agree across ranks.
func (t *Tags) Next() int {
	tag := t.base + t.seq&(1<<planSeqBits-1)
	t.seq++
	return tag
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int {
	if c.ranks == nil {
		return c.world.size
	}
	return len(c.ranks)
}

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.world }

// Stats returns the calling rank's send accounting. Each rank owns its slot
// (single-writer), so this is exact in every transport; merge across ranks
// with a collective (see core's phase report) rather than by reading peers'
// slots, which do not exist in a multi-process world.
func (c *Comm) Stats() CommStats {
	return c.world.sent[c.worldRank(c.rank)].st
}

// worldRank maps a communicator rank to the underlying world rank.
func (c *Comm) worldRank(r int) int {
	if c.ranks == nil {
		return r
	}
	return c.ranks[r]
}

func (c *Comm) checkRank(r int, what string) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: %s rank %d out of range [0,%d)", what, r, c.Size()))
	}
}

// Abort marks the world aborted with the given reason and panics with an
// *AbortError, unblocking every peer parked in a Recv or collective.
// It is the local-failure escape hatch: a rank that detects an unrecoverable
// condition takes the whole world down deterministically instead of leaving
// its peers deadlocked waiting for messages that will never come.
func (c *Comm) Abort(reason string) {
	c.world.abortWith(fmt.Sprintf("world aborted: rank %d: %s", c.worldRank(c.rank), reason))
	panic(&AbortError{Rank: c.worldRank(c.rank), Src: AnySource, Tag: AnyTag, Reason: reason})
}

// preSend runs the fault hook and accounting shared by the local and wire
// send paths — injection verbs and counters behave identically on both. It
// reports false when an armed Drop plan ate the message.
func (c *Comm) preSend(bytes int, wire bool) bool {
	if inj := fault.Armed(); inj != nil {
		if inj.Hit(fault.PointSend, c.worldRank(c.rank), -1) == fault.Dropped {
			return false // message silently lost, as if the wire ate it
		}
	}
	st := &c.world.sent[c.worldRank(c.rank)].st
	st.Msgs++
	st.Bytes += int64(bytes)
	if wire {
		st.WireMsgs++
		st.WireBytes += int64(bytes)
	}
	c.world.BytesSent.Add(int64(bytes))
	c.world.MsgsSent.Add(1)
	return true
}

// send delivers payload (a slice that the receiver will own) to a dst whose
// mailbox is local.
func (c *Comm) send(dst, tag int, payload any, bytes int) {
	c.checkRank(dst, "destination")
	if !c.preSend(bytes, false) {
		return
	}
	c.world.boxes[c.worldRank(dst)].put(message{ctx: c.ctx, src: c.rank, tag: tag, payload: payload})
}

// sendWire frames the raw memory image of the payload and writes it to the
// connection for dst. The bytes are copied into the socket before returning,
// so the caller's buffer is immediately reusable — wire sends keep the
// eager-send contract. A dead connection aborts the world: the message can
// never be delivered, so peers waiting on it must be woken.
func (c *Comm) sendWire(dst, tag int, raw []byte, bytes int) {
	c.checkRank(dst, "destination")
	if !c.preSend(bytes, true) {
		return
	}
	if err := c.world.tr.send(c.worldRank(dst), c.ctx, c.rank, tag, raw); err != nil {
		reason := fmt.Sprintf("send to rank %d failed: %v", c.worldRank(dst), err)
		c.world.abortWith(fmt.Sprintf("world aborted: rank %d: %s", c.worldRank(c.rank), reason))
		panic(&AbortError{Rank: c.worldRank(c.rank), Src: AnySource, Tag: tag, Reason: reason})
	}
}

// recv blocks until a matching message arrives and returns its payload.
func (c *Comm) recv(src, tag int) any {
	if src != AnySource {
		c.checkRank(src, "source")
	}
	if inj := fault.Armed(); inj != nil {
		inj.Hit(fault.PointRecv, c.worldRank(c.rank), -1)
	}
	t0 := obs.Begin()
	msg, err := c.world.boxes[c.worldRank(c.rank)].take(c.ctx, src, tag, c.world.Timeout())
	obs.End(c.worldRank(c.rank), obs.SpanRecv, t0)
	if err != nil {
		panic(err)
	}
	return msg.payload
}

// sendSize returns the element size of a message of T, panicking on a
// zero-size T on every transport (checkSized).
func sendSize[T any]() int {
	es := sizeOf[T]()
	if es == 0 {
		checkSized(reflect.TypeFor[T]())
	}
	return es
}

// Send copies buf and delivers it to rank dst with the given tag. It does
// not block (sends are buffered, as with eager-protocol MPI messages).
func Send[T any](c *Comm, dst, tag int, buf []T) {
	c.checkRank(dst, "destination")
	n := len(buf) * sendSize[T]()
	if c.world.boxes[c.worldRank(dst)] != nil {
		cp := make([]T, len(buf))
		copy(cp, buf)
		c.send(dst, tag, cp, n)
		return
	}
	c.sendWire(dst, tag, asBytes(buf), n)
}

// SendMove delivers buf to rank dst without copying. The caller must not
// touch buf afterwards. Used on large transfers (FFT transposes).
func SendMove[T any](c *Comm, dst, tag int, buf []T) {
	c.checkRank(dst, "destination")
	n := len(buf) * sendSize[T]()
	if c.world.boxes[c.worldRank(dst)] != nil {
		c.send(dst, tag, buf, n)
		return
	}
	c.sendWire(dst, tag, asBytes(buf), n)
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload. src may be AnySource and tag may be AnyTag.
func Recv[T any](c *Comm, src, tag int) []T {
	p := c.recv(src, tag)
	if raw, ok := p.(rawPayload); ok {
		return decodeRaw[T](raw)
	}
	buf, ok := p.([]T)
	if !ok {
		panic(fmt.Sprintf("mpi: Recv type mismatch: got %T", p))
	}
	return buf
}

// Split partitions the communicator into sub-communicators, one per distinct
// color; ranks within a sub-communicator are ordered by (key, old rank).
// Every member of c must call Split with the same call sequence. A negative
// color returns nil (the rank does not join any sub-communicator).
func (c *Comm) Split(color, key int) *Comm {
	type ck struct{ Color, Key int }
	all := AllGather(c, []ck{{color, key}})
	seq := c.seq
	c.seq++
	if color < 0 {
		return nil
	}
	// Collect members with my color, ordered by (key, rank).
	var members []int
	for r := 0; r < c.Size(); r++ {
		if all[r].Color == color {
			members = append(members, r)
		}
	}
	// Stable sort by key (insertion sort: groups are small).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && all[members[j-1]].Key > all[members[j]].Key; j-- {
			members[j-1], members[j] = members[j], members[j-1]
		}
	}
	newRank := -1
	worldRanks := make([]int, len(members))
	for i, r := range members {
		worldRanks[i] = c.worldRank(r)
		if r == c.rank {
			newRank = i
		}
	}
	return &Comm{world: c.world, ctx: splitCtx(c.ctx, seq, color), rank: newRank, ranks: worldRanks}
}

// splitCtx derives a sub-communicator's context id from
// (parent ctx, split sequence, color) with a splitmix64-style mixer. Every
// member observes the same inputs, so all agree on the context with no extra
// communication — and, unlike the shared registry this replaces, the
// derivation holds across OS process boundaries, where ranks share no
// memory. Distinct splits collide only with ~2^-64 probability per pair;
// the zero context is reserved for the world communicator and remapped.
func splitCtx(parent, seq int64, color int) int64 {
	x := uint64(parent)*0x9e3779b97f4a7c15 +
		uint64(seq)*0xbf58476d1ce4e5b9 +
		uint64(color+1)*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return int64(x)
}
