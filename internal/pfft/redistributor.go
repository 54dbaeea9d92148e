package pfft

import (
	"fmt"

	"hacc/internal/mpi"
)

// redistTag is the point-to-point tag used by Redistributor traffic. Each
// collective Run exchanges at most one message per (ordered) rank pair, and
// the in-process mpi preserves per-pair FIFO order, so a fixed tag is safe.
const redistTag = 0x5244

// run is one planned move of n elements, stored consecutively into dst and
// read stride apart from src: out[dst+i] = in[src+i·stride]. Lines that
// continue each other on both sides are merged when the plan is built.
type run struct {
	src, dst, n, stride int
}

// peerXfer is one planned transfer leg: the peer rank, the moves between
// local storage and the message (packed in the sender's storage order), and
// the message length.
type peerXfer struct {
	rank  int
	runs  []run
	count int
}

// Pack is a send staging buffer. Every plan has one; plans that never run
// at the same time may share one (SetPack), since the mpi runtime copies or
// writes a payload before Send returns. It grows on first use to the
// largest leg of the plans that use it.
type Pack[T any] struct{ buf []T }

// Redistributor is a planned layout-to-layout redistribution. Building the
// plan walks the box intersections once: empty intersections are dropped (no
// zero-length messages), the rank's own overlap becomes a direct src→dst
// move that never touches the mpi mailbox, and every remaining leg gets a
// precomputed run list. Run then reduces to pack→send, local move,
// recv→unpack. Either layout may be padded (Layout.Pad), in which case
// the runs read or write the interior of the padded storage and leave its
// halo alone.
//
// A Redistributor is collective state: every rank of the communicator must
// build the plan over the same layout pair and call Run collectively. Run is
// not safe for concurrent use of one plan, or of plans sharing a Pack.
type Redistributor[T any] struct {
	comm           *mpi.Comm
	from, to       *Layout
	srcLen, dstLen int

	self         []run // direct moves src → dst
	sends, recvs []peerXfer
	pack         *Pack[T]
	maxSend      int // the largest send leg
}

// NewRedistributor plans the redistribution from one layout to the other on
// the given communicator. Purely local (no communication).
func NewRedistributor[T any](c *mpi.Comm, from, to *Layout) *Redistributor[T] {
	p := c.Size()
	if len(from.Boxes) != p || len(to.Boxes) != p {
		panic(fmt.Sprintf("pfft: layout has %d/%d boxes for comm of size %d",
			len(from.Boxes), len(to.Boxes), p))
	}
	me := c.Rank()
	rd := &Redistributor[T]{
		comm: c, from: from, to: to,
		srcLen: from.StorageLen(me),
		dstLen: to.StorageLen(me),
		pack:   new(Pack[T]),
	}
	mine := from.Boxes[me]
	dstBox := to.Boxes[me]
	for r := 0; r < p; r++ {
		// Outgoing: the part of my source box that rank r owns under `to`,
		// packed in my (from) storage order.
		if itc := Intersect(mine, to.Boxes[r]); !itc.Empty() {
			if r == me {
				rd.self = planRuns(itc, from, me, to, me)
			} else {
				rd.sends = append(rd.sends, peerXfer{rank: r, count: itc.Count(),
					runs: planRuns(itc, from, me, wireLayout(itc, from), 0)})
				rd.maxSend = max(rd.maxSend, itc.Count())
			}
		}
		// Incoming: the part of my destination box that rank r owns under
		// `from`, arriving in that rank's storage order.
		if itc := Intersect(from.Boxes[r], dstBox); !itc.Empty() && r != me {
			rd.recvs = append(rd.recvs, peerXfer{rank: r, count: itc.Count(),
				runs: planRuns(itc, wireLayout(itc, from), 0, to, me)})
		}
	}
	return rd
}

// SetPack makes the plan stage its sends in pk, which other plans of the
// same element type may use too.
func (rd *Redistributor[T]) SetPack(pk *Pack[T]) { rd.pack = pk }

// wireLayout describes a message as a one-rank layout: the intersection
// itc, packed in the sender's storage order.
func wireLayout(itc Box, from *Layout) *Layout {
	return &Layout{N: from.N, Order: from.Order, Boxes: []Box{itc}}
}

// planRuns lists the moves that carry the points of itc from srcRank's
// storage under src to dstRank's storage under dst. The walk follows the
// destination's storage order, one line along its fastest axis at a time:
// stores are consecutive and the loads take the stride, because a core
// overlaps the cache misses of scattered loads but retires scattered stores
// one miss at a time. Packing a message walks the sender's own order on both
// sides, so a send is all copies.
func planRuns(itc Box, src *Layout, srcRank int, dst *Layout, dstRank int) []run {
	o0, o1, o2 := dst.Order[0], dst.Order[1], dst.Order[2]
	if o0 == src.Order[2] {
		// Step the source's fastest axis between lines, so that
		// neighbouring lines load from the same cache lines.
		o0, o1 = o1, o0
	}
	n, stride := itc.Size(o2), src.axisStride(srcRank, o2)
	var runs []run
	g := itc.Lo
	for a := itc.Lo[o0]; a < itc.Hi[o0]; a++ {
		for b := itc.Lo[o1]; b < itc.Hi[o1]; b++ {
			g[o0], g[o1] = a, b
			r := run{src: src.LocalIndex(srcRank, g), dst: dst.LocalIndex(dstRank, g), n: n, stride: stride}
			if len(runs) > 0 {
				last := &runs[len(runs)-1]
				if r.dst == last.dst+last.n && r.src == last.src+last.n*stride {
					last.n += n
					continue
				}
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// move executes a run list from in to out.
func move[T any](out, in []T, runs []run) {
	for _, r := range runs {
		d := out[r.dst : r.dst+r.n]
		if r.stride == 1 {
			copy(d, in[r.src:r.src+r.n])
			continue
		}
		s := in[r.src : r.src+(r.n-1)*r.stride+1]
		j := 0
		for i := range d {
			d[i] = s[j]
			j += r.stride
		}
	}
}

// SrcLen returns this rank's local storage length under the source layout.
func (rd *Redistributor[T]) SrcLen() int { return rd.srcLen }

// DstLen returns this rank's local storage length under the destination
// layout.
func (rd *Redistributor[T]) DstLen() int { return rd.dstLen }

// Run moves src (local storage under the source layout) into dst (local
// storage under the destination layout) and returns dst; a nil dst is
// allocated. Only box points are written: a padded dst keeps its halo.
// src and dst must not alias. Collective over the plan's communicator.
func (rd *Redistributor[T]) Run(src, dst []T) []T {
	if len(src) != rd.srcLen {
		panic(fmt.Sprintf("pfft: local data length %d != storage length %d", len(src), rd.srcLen))
	}
	if dst == nil {
		dst = make([]T, rd.dstLen)
	} else if len(dst) != rd.dstLen {
		panic(fmt.Sprintf("pfft: destination length %d != storage length %d", len(dst), rd.dstLen))
	}
	if cap(rd.pack.buf) < rd.maxSend {
		rd.pack.buf = make([]T, rd.maxSend)
	}
	// Sends are eager (buffered) in the mpi runtime, so posting them all
	// before any receive cannot deadlock, and the pack buffer is free again
	// as soon as a Send returns.
	for i := range rd.sends {
		s := &rd.sends[i]
		buf := rd.pack.buf[:s.count]
		move(buf, src, s.runs)
		mpi.Send(rd.comm, s.rank, redistTag, buf)
	}
	move(dst, src, rd.self)
	for i := range rd.recvs {
		r := &rd.recvs[i]
		buf := mpi.Recv[T](rd.comm, r.rank, redistTag)
		if len(buf) != r.count {
			panic(fmt.Sprintf("pfft: received %d elements from rank %d, expected %d",
				len(buf), r.rank, r.count))
		}
		move(dst, buf, r.runs)
	}
	return dst
}
