package mpi

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"
)

// wireTransport carries frames between this process's rank and every peer
// over persistent connections: one full-duplex connection per peer pair,
// established once at bootstrap and reused for the life of the world
// (connection reuse — no per-message dials). Sends are eager: the frame is
// written to the socket at post time under the connection's write lock, and
// the peer's reader goroutine parks it in the local mailbox where the usual
// lazy (comm, src, tag) matching applies. A connection preserves byte order,
// so messages on the same envelope arrive FIFO exactly as in the inproc
// mailbox. Every connection's kernel buffers are sized to hold a whole
// transpose leg (sockBufBytes), so an eager send does not wait on the peer's
// reader.
type wireTransport struct {
	w    *World
	self int
	size int
	opt  WireOptions

	peers []helloMsg // rendezvous address table, indexed by world rank

	mu    sync.Mutex
	cond  *sync.Cond
	conns []*peerConn // indexed by world rank; nil for self
	ready int         // number of registered peer connections
	byes  int         // peers that announced graceful close
	err   error       // first bootstrap/teardown error

	lnTCP  net.Listener
	lnUnix net.Listener
	wg     sync.WaitGroup // accept loops and reader goroutines
}

// peerConn is one live connection to a peer rank.
type peerConn struct {
	rank int
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	hdr  [FrameHeaderSize]byte // scratch, guarded by wmu
	bye  bool                  // peer announced graceful close (guarded by t.mu)
}

// writeFrame frames and writes one message under the connection write lock.
func (pc *peerConn) writeFrame(h frameHeader, payload []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	putFrame(pc.hdr[:], h, payload)
	if _, err := pc.bw.Write(pc.hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := pc.bw.Write(payload); err != nil {
			return err
		}
	}
	return pc.bw.Flush()
}

// send delivers one data frame to the peer hosting world rank dst.
func (t *wireTransport) send(dst int, ctx int64, src, tag int, payload []byte) error {
	pc, err := t.connTo(dst)
	if err != nil {
		return err
	}
	return pc.writeFrame(frameHeader{
		kind: frameData, ctx: ctx, src: int64(src), tag: int64(tag), dst: int64(dst),
		sendNs: time.Now().UnixNano(),
	}, payload)
}

// connTo returns the registered connection for a world rank.
func (t *wireTransport) connTo(rank int) (*peerConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pc := t.conns[rank]
	if pc == nil {
		return nil, fmt.Errorf("mpi: no connection to rank %d", rank)
	}
	return pc, nil
}

// sockBufBytes is the SO_SNDBUF/SO_RCVBUF request on every data connection.
// Sends are eager: a Send returns once its frame is in the kernel. The pencil
// FFT's transpose legs are 256 KiB–1 MiB frames; with Linux's default
// ~208 KiB buffer such a frame does not fit, the sender blocks in write until
// the peer's readLoop has drained it, and both ranks end up waiting in the
// redistributor's Recv. 4 MiB holds a whole leg. The kernel clamps the
// request to net.core.wmem_max/rmem_max; the "wire.sockbuf_bytes" gauge
// reports what it granted.
const sockBufBytes = 4 << 20

// sizeSockBuf requests sockBufBytes for both directions of conn and returns
// the send buffer the kernel granted as getsockopt(SO_SNDBUF) reads it
// (Linux reports twice the clamped request, the doubling being its
// bookkeeping allowance), or 0 where it cannot be read. The request is best
// effort: a refused size leaves the kernel default, which is slower but
// correct.
func sizeSockBuf(conn net.Conn) int {
	c, ok := conn.(interface {
		SetReadBuffer(int) error
		SetWriteBuffer(int) error
		SyscallConn() (syscall.RawConn, error)
	})
	if !ok {
		return 0
	}
	c.SetWriteBuffer(sockBufBytes)
	c.SetReadBuffer(sockBufBytes)
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	granted := 0
	rc.Control(func(fd uintptr) { granted = sndBufOf(fd) })
	return granted
}

// register sizes a peer's connection buffers, installs the connection and
// wakes bootstrap waiters. A duplicate registration (two processes claiming
// one rank) is a fatal bootstrap error.
func (t *wireTransport) register(rank int, conn net.Conn) (*peerConn, error) {
	granted := sizeSockBuf(conn)
	pc := &peerConn{rank: rank, conn: conn, bw: bufio.NewWriter(conn)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= t.size || rank == t.self {
		return nil, fmt.Errorf("mpi: hello from invalid rank %d", rank)
	}
	if t.conns[rank] != nil {
		return nil, fmt.Errorf("mpi: duplicate connection from rank %d", rank)
	}
	t.conns[rank] = pc
	t.ready++
	if g := t.w.metrics.Gauge("wire.sockbuf_bytes"); granted > 0 && (g.Value() == 0 || float64(granted) < g.Value()) {
		g.Set(float64(granted)) // the least grant over the data connections
	}
	t.cond.Broadcast()
	return pc, nil
}

// wake unparks goroutines blocked on transport state (bootstrap, close
// handshake) so they observe a world abort promptly.
func (t *wireTransport) wake() { t.cond.Broadcast() }

// readLoop dispatches incoming frames from one peer until the connection
// drains. Data frames are parked in the destination mailbox — the reader is
// always draining, so an eager sender can never deadlock against a busy
// peer. An abort frame tears the local world down with the sender's reason;
// a connection error without a prior bye means the peer died, which also
// aborts the world (a lost peer can never satisfy a pending receive).
func (t *wireTransport) readLoop(pc *peerConn, br *bufio.Reader) {
	for {
		h, payload, err := readFrame(br)
		if err != nil {
			t.mu.Lock()
			quiet := pc.bye || t.err != nil
			t.mu.Unlock()
			if quiet || t.w.aborted.Load() {
				return
			}
			t.w.abortInternal(fmt.Sprintf("world aborted: rank %d: connection to rank %d lost: %v",
				t.self, pc.rank, err), false)
			return
		}
		switch h.kind {
		case frameData:
			dst := int(h.dst)
			if dst < 0 || dst >= t.size || t.w.boxes[dst] == nil {
				t.w.abortInternal(fmt.Sprintf("world aborted: rank %d: misrouted frame for rank %d from rank %d",
					t.self, dst, pc.rank), false)
				return
			}
			t.w.boxes[dst].put(message{ctx: h.ctx, src: int(h.src), tag: int(h.tag), payload: rawPayload(payload), sentNs: h.sendNs})
		case frameAbort:
			t.w.abortInternal(string(payload), false)
			// Keep draining until the peer closes; the abort already woke
			// every local waiter.
		case frameBye:
			t.mu.Lock()
			if !pc.bye {
				pc.bye = true
				t.byes++
			}
			t.mu.Unlock()
			t.cond.Broadcast()
		default:
			t.w.abortInternal(fmt.Sprintf("world aborted: rank %d: unknown frame kind %d from rank %d",
				t.self, h.kind, pc.rank), false)
			return
		}
	}
}

// broadcastAbort best-effort delivers the abort reason to every peer so the
// whole distributed world tears down instead of waiting for timeouts. Writes
// are bounded by a short deadline: an abort must never block behind a dead
// peer's full socket.
func (t *wireTransport) broadcastAbort(reason string) {
	t.mu.Lock()
	conns := append([]*peerConn(nil), t.conns...)
	t.mu.Unlock()
	payload := []byte(reason)
	for _, pc := range conns {
		if pc == nil {
			continue
		}
		pc.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		pc.writeFrame(frameHeader{kind: frameAbort}, payload)
	}
}

// close runs the graceful shutdown handshake: announce bye to every peer,
// wait (bounded) until every peer has announced bye too, then close the
// sockets. The wait is what preserves the inproc semantics of sending to a
// rank that has already finished — the late sender's frame still lands in a
// live connection and is dropped in the dead mailbox, rather than failing
// with a reset and aborting a healthy world. On an aborted world the
// handshake is skipped: everything is torn down immediately.
func (t *wireTransport) close() error {
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return nil
	}
	t.err = fmt.Errorf("mpi: world closed")
	conns := append([]*peerConn(nil), t.conns...)
	t.mu.Unlock()

	for _, pc := range conns {
		if pc == nil {
			continue
		}
		pc.writeFrame(frameHeader{kind: frameBye}, nil)
	}
	if !t.w.aborted.Load() {
		deadline := time.Now().Add(t.opt.Timeout)
		alarm := time.AfterFunc(t.opt.Timeout, t.cond.Broadcast)
		t.mu.Lock()
		for t.byes < t.ready && time.Now().Before(deadline) && !t.w.aborted.Load() {
			t.cond.Wait()
		}
		t.mu.Unlock()
		alarm.Stop()
	}
	if t.lnTCP != nil {
		t.lnTCP.Close()
	}
	if t.lnUnix != nil {
		t.lnUnix.Close()
	}
	for _, pc := range conns {
		if pc != nil {
			pc.conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}

// newFrameReader wraps a connection for frame reads. The same buffered
// reader must be used for a connection's whole life — handing a connection
// from the hello handshake to the read loop with a fresh reader would lose
// whatever the first reader buffered ahead.
func newFrameReader(c net.Conn) *bufio.Reader { return bufio.NewReader(c) }

// Close tears down the wire transport, if any: graceful bye handshake with
// every peer, then sockets and listener shutdown. A no-op for inproc worlds
// and on repeat calls.
func (w *World) Close() error {
	if w.tr == nil {
		return nil
	}
	return w.tr.close()
}
