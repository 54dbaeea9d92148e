package pfft

import (
	"fmt"

	"hacc/internal/mpi"
)

// Elem is the element type of a redistribution: a plan copies it, and its
// transpose adds it.
type Elem interface {
	~float32 | ~float64 | ~complex64 | ~complex128
}

// run is one planned move of n elements, stored consecutively into dst and
// read stride apart from src: out[dst+i] = in[src+i·stride]. Lines that
// continue each other on both sides are merged when the plan is built.
// The fields are int32, which halves a plan's memory and bounds a rank's
// storage and messages to 2³¹ − 1 elements (checked when planning).
type run struct {
	src, dst, n, stride int32
}

// i32 narrows a planned index or length to a run field.
func i32(v int) int32 {
	if v != int(int32(v)) {
		panic(fmt.Sprintf("pfft: index %d exceeds a run's int32 range", v))
	}
	return int32(v)
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
// precomputed run list. A run is then pack→send, recv→unpack, local move.
// Either layout may be padded (Layout.Pad), in which case the runs read or
// write the interior of the padded storage and leave its halo alone.
//
// The destination may be a halo layout (Layout.Halo), whose ghost slots are
// data: the plan then intersects the 27 periodic images of every source box
// with every destination's padded box, so a point may go to several ranks,
// or several times to one. Each peer still gets one message, its images in
// shift order ((sx, sy, sz) ascending). A plan from a padded layout into its
// own halo serves one storage: it skips the identity image of a rank's own
// box, which is already in place, and so moves exactly the ghost cells.
//
// Every run draws a fresh tag from the plan's mpi.Tags, so runs of several
// plans, or two runs of one plan, may be in flight at once. A run splits
// into Begin (pack and send every leg) and End (receive and unpack the legs
// in rank order, then the self moves); the transpose (BeginTranspose) runs
// the same legs the other way and adds, which for a halo plan sums every
// ghost copy into its canonical point.
//
// A Redistributor is collective state: every rank of the communicator must
// build the plan over the same layout pair, in the same order among the
// communicator's plans (their tags are numbered on it), and run it
// collectively. A run is not safe for concurrent use of one plan, or of
// plans sharing a Pack.
type Redistributor[T Elem] struct {
	comm           *mpi.Comm
	srcLen, dstLen int

	self             []run // direct moves src → dst
	sends, recvs     []peerXfer
	pack             *Pack[T]
	maxSend, maxRecv int // the largest send and receive legs
	tags             mpi.Tags
}

// NewRedistributor plans the redistribution from one layout to the other on
// the given communicator. Planning is local; a plan into a halo layout then
// checks its legs with the peers (checkPeers), so that build is collective.
func NewRedistributor[T Elem](c *mpi.Comm, from, to *Layout) *Redistributor[T] {
	p := c.Size()
	if len(from.Boxes) != p || len(to.Boxes) != p {
		panic(fmt.Sprintf("pfft: layout has %d/%d boxes for comm of size %d",
			len(from.Boxes), len(to.Boxes), p))
	}
	if from.halo {
		panic("pfft: a halo layout can only be a redistribution's destination")
	}
	me := c.Rank()
	rd := &Redistributor[T]{
		comm:   c,
		srcLen: from.StorageLen(me),
		dstLen: to.StorageLen(me),
		pack:   new(Pack[T]),
		tags:   c.NewTags(),
	}
	for r := 0; r < p; r++ {
		if r == me {
			rd.self, _ = planLeg(from, me, to, me, me)
			continue
		}
		// Outgoing: the images of my source box in rank r's destination
		// data, packed in my (from) storage order.
		if runs, n := planLeg(from, me, to, r, me); n > 0 {
			rd.sends = append(rd.sends, peerXfer{rank: r, runs: runs, count: n})
			rd.maxSend = max(rd.maxSend, n)
		}
		// Incoming: the images of rank r's source box in my destination
		// data, arriving in that rank's storage order.
		if runs, n := planLeg(from, r, to, me, me); n > 0 {
			rd.recvs = append(rd.recvs, peerXfer{rank: r, runs: runs, count: n})
			rd.maxRecv = max(rd.maxRecv, n)
		}
	}
	if to.halo {
		rd.checkPeers()
	}
	return rd
}

// checkPeers has every rank confirm, in one all-to-all, that each leg it
// expects from a peer has the length that peer plans to send, and panics
// if not: the ranks planned different layouts or halo widths, which would
// otherwise surface at the first End, or not at all where the lengths
// agree. skybench's golden message counts include it: halo-clustered
// rebuilds its ghost exchangers inside a run when it rebalances.
func (rd *Redistributor[T]) checkPeers() {
	p := rd.comm.Size()
	lengths := func(legs []peerXfer) []int {
		v := make([]int, p)
		for _, l := range legs {
			v[l.rank] = l.count
		}
		return v
	}
	sent, want := lengths(rd.sends), lengths(rd.recvs)
	parts := make([][]int, p)
	for r := range parts {
		parts[r] = sent[r : r+1]
	}
	for r, got := range mpi.AllToAll(rd.comm, parts) {
		if got[0] != want[r] {
			panic(fmt.Sprintf("pfft: rank %d plans to send %d elements to rank %d, which expects %d",
				r, got[0], rd.comm.Rank(), want[r]))
		}
	}
}

// SetPack makes the plan stage its sends in pk, which other plans of the
// same element type may use too.
func (rd *Redistributor[T]) SetPack(pk *Pack[T]) { rd.pack = pk }

// place is where planRuns reads or writes points: a rank's storage under a
// layout, from offset off on, indexed at a point's global coordinates less
// shift (the displacement of the periodic image the point belongs to).
type place struct {
	l         *Layout
	rank, off int
	shift     [3]int
}

func (pl place) index(g [3]int) int {
	for d := range g {
		g[d] -= pl.shift[d]
	}
	return pl.off + pl.l.LocalIndex(pl.rank, g)
}

// planLeg lists the moves that carry the images of rank s's source box
// into rank d's destination data, image by image in shift order, and counts
// their points. Run on rank me, it moves between me's storage and the
// message: from the source storage when me = s, into the destination
// storage when me = d, and between the two storages, with no message, when
// both are me. Each image is packed in the sender's storage order.
func planLeg(from *Layout, s int, to *Layout, d, me int) (runs []run, count int) {
	inPlace := from.Pad == to.Pad && from.Order == to.Order && from.Boxes[s] == to.Boxes[d]
	for _, sh := range imageShifts(to) {
		itc := Intersect(from.Boxes[s].shift(sh), to.dataBox(d))
		if itc.Empty() || to.halo && s == d && inPlace && sh == [3]int{} {
			continue
		}
		src, dst := place{l: from, rank: s, shift: sh}, place{l: to, rank: d}
		if s != d {
			msg := place{l: wireLayout(itc.shift([3]int{-sh[0], -sh[1], -sh[2]}), from), off: count, shift: sh}
			if s == me {
				dst = msg
			} else {
				src = msg
			}
		}
		runs = planRuns(runs, itc, src, dst)
		count += itc.Count()
	}
	return runs, count
}

// imageShifts lists the displacements of the periodic images a plan into
// to can meet, in shift order: (sx, sy, sz)·N for each component in
// {−1, 0, 1}, ascending, under a halo layout, and only the identity
// otherwise.
func imageShifts(to *Layout) [][3]int {
	if !to.halo {
		return [][3]int{{}}
	}
	n := to.N
	shifts := make([][3]int, 0, 27)
	for sx := -1; sx <= 1; sx++ {
		for sy := -1; sy <= 1; sy++ {
			for sz := -1; sz <= 1; sz++ {
				shifts = append(shifts, [3]int{sx * n[0], sy * n[1], sz * n[2]})
			}
		}
	}
	return shifts
}

// wireLayout describes a message as a one-rank layout: the box b of source
// points, packed in the sender's storage order.
func wireLayout(b Box, from *Layout) *Layout {
	return &Layout{N: from.N, Order: from.Order, Boxes: []Box{b}}
}

// planRuns appends the moves that carry the points of itc from src to dst.
// The walk follows the destination's storage order, one line along its
// fastest axis at a time: stores are consecutive and the loads take the
// stride, because a core overlaps the cache misses of scattered loads but
// retires scattered stores one miss at a time. Packing a message walks the
// sender's own order on both sides, so a send is all copies.
func planRuns(runs []run, itc Box, src, dst place) []run {
	o0, o1, o2 := dst.l.Order[0], dst.l.Order[1], dst.l.Order[2]
	if o0 == src.l.Order[2] {
		// Step the source's fastest axis between lines, so that
		// neighbouring lines load from the same cache lines.
		o0, o1 = o1, o0
	}
	n, stride := itc.Size(o2), src.l.axisStride(src.rank, o2)
	g := itc.Lo
	for a := itc.Lo[o0]; a < itc.Hi[o0]; a++ {
		for b := itc.Lo[o1]; b < itc.Hi[o1]; b++ {
			g[o0], g[o1] = a, b
			si, di := src.index(g), dst.index(g)
			if len(runs) > 0 {
				last := &runs[len(runs)-1]
				ln := int(last.n)
				if di == int(last.dst)+ln && si == int(last.src)+ln*stride && stride == int(last.stride) {
					last.n = i32(ln + n)
					continue
				}
			}
			runs = append(runs, run{src: i32(si), dst: i32(di), n: i32(n), stride: i32(stride)})
		}
	}
	return runs
}

// move executes a run list from in to out.
func move[T any](out, in []T, runs []run) {
	for _, r := range runs {
		src, dst, n, stride := int(r.src), int(r.dst), int(r.n), int(r.stride)
		d := out[dst : dst+n]
		if stride == 1 {
			copy(d, in[src:src+n])
			continue
		}
		s := in[src : src+(n-1)*stride+1]
		j := 0
		for i := range d {
			d[i] = s[j]
			j += stride
		}
	}
}

// moveBack executes a run list backwards, from its destinations into its
// sources: out[src+i·stride] = in[dst+i], or += when add is set. The runs
// are taken in order, so a point the plan reads more than once takes its
// adds in run order.
func moveBack[T Elem](out, in []T, runs []run, add bool) {
	for _, r := range runs {
		src, dst, n, stride := int(r.src), int(r.dst), int(r.n), int(r.stride)
		s := in[dst : dst+n]
		if stride == 1 {
			d := out[src : src+n]
			if !add {
				copy(d, s)
				continue
			}
			d = d[:len(s)]
			for i, v := range s {
				d[i] += v
			}
			continue
		}
		j := src
		for _, v := range s {
			if add {
				out[j] += v
			} else {
				out[j] = v
			}
			j += stride
		}
	}
}

// SrcLen returns this rank's local storage length under the source layout.
func (rd *Redistributor[T]) SrcLen() int { return rd.srcLen }

// DstLen returns this rank's local storage length under the destination
// layout.
func (rd *Redistributor[T]) DstLen() int { return rd.dstLen }

// NumSends returns the number of ranks a run sends to (the transpose
// receives from the same ranks).
func (rd *Redistributor[T]) NumSends() int { return len(rd.sends) }

// Op is one in-flight run of a plan, from Begin or BeginTranspose to End.
// It is a value: a plan keeps nothing of it, so ops of one plan may
// complete in any order.
type Op[T Elem] struct {
	rd        *Redistributor[T]
	src, dst  []T
	tag       int
	transpose bool
}

// Run moves src (local storage under the source layout) into dst (local
// storage under the destination layout) and returns dst; a nil dst is
// allocated. Only data points are written: a padded dst keeps its halo,
// unless the destination is a halo layout. src and dst must not alias,
// except in a plan into the source layout's own halo, which reads only the
// interior and writes only the halo. Collective over the plan's
// communicator.
func (rd *Redistributor[T]) Run(src, dst []T) []T {
	if dst == nil {
		dst = make([]T, rd.dstLen)
	}
	rd.Begin(src, dst).End()
	return dst
}

// Begin starts a run (see Run): it packs and sends every leg. Collective;
// complete it with End before src or dst is touched again.
func (rd *Redistributor[T]) Begin(src, dst []T) Op[T] {
	checkLen(src, rd.srcLen, "source")
	checkLen(dst, rd.dstLen, "destination")
	op := Op[T]{rd: rd, src: src, dst: dst, tag: rd.tags.Next()}
	rd.pack.grow(rd.maxSend)
	for i := range rd.sends {
		s := &rd.sends[i]
		buf := rd.pack.buf[:s.count]
		move(buf, src, s.runs)
		mpi.Send(rd.comm, s.rank, op.tag, buf)
	}
	return op
}

// BeginTranspose starts a run of the plan's transpose: src is storage under
// the destination layout and dst storage under the source layout, and every
// point of dst adds, after its own value, the values of all its copies in
// src — leg by leg in rank order, each leg's images in shift order, then
// this rank's own images. It packs and sends every leg. Collective;
// complete it with End.
func (rd *Redistributor[T]) BeginTranspose(src, dst []T) Op[T] {
	checkLen(src, rd.dstLen, "transpose source")
	checkLen(dst, rd.srcLen, "transpose destination")
	op := Op[T]{rd: rd, src: src, dst: dst, tag: rd.tags.Next(), transpose: true}
	rd.pack.grow(rd.maxRecv)
	for i := range rd.recvs {
		r := &rd.recvs[i]
		buf := rd.pack.buf[:r.count]
		moveBack(buf, src, r.runs, false)
		mpi.Send(rd.comm, r.rank, op.tag, buf)
	}
	return op
}

// End receives the op's legs in rank order and unpacks them, then applies
// this rank's self moves. Collective.
func (op Op[T]) End() {
	rd := op.rd
	legs := rd.recvs
	if op.transpose {
		legs = rd.sends
	}
	for i := range legs {
		l := &legs[i]
		buf := mpi.Recv[T](rd.comm, l.rank, op.tag)
		if len(buf) != l.count {
			panic(fmt.Sprintf("pfft: received %d elements from rank %d, expected %d",
				len(buf), l.rank, l.count))
		}
		if op.transpose {
			moveBack(op.dst, buf, l.runs, true)
		} else {
			move(op.dst, buf, l.runs)
		}
	}
	if op.transpose {
		moveBack(op.dst, op.src, rd.self, true)
	} else {
		move(op.dst, op.src, rd.self)
	}
}

// grow makes the pack hold at least n elements.
func (pk *Pack[T]) grow(n int) {
	if cap(pk.buf) < n {
		pk.buf = make([]T, n)
	}
}

func checkLen[T any](v []T, n int, what string) {
	if len(v) != n {
		panic(fmt.Sprintf("pfft: %s length %d != storage length %d", what, len(v), n))
	}
}
