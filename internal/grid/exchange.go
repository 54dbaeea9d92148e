package grid

import (
	"fmt"

	"hacc/internal/mpi"
	"hacc/internal/par"
)

// Ghost traffic tags: every Begin draws a fresh tag from a rolling sequence
// (advanced identically on all ranks by the collective call order), so
// several ghost collectives may be in flight at once — e.g. the three
// acceleration-component Fills pipelined against interpolation — without
// message mismatches. Each exchanger instance additionally gets its own tag
// block (Comm.NextPlanID: instances are built in the same collective order
// on every rank, so the numbering agrees): the density and acceleration
// exchangers of one simulation can never collide even when both have
// collectives in flight. The grid block 0x200000–0x2fffff is disjoint from
// the domain exchange's 0x100000–0x1fffff and the pfft redistributor tag.
const tagGhostBase = 0x200000

// gLeg is one planned neighbor leg of the ghost exchange: the peer rank plus
// views of the ghost-slot and owned-cell index lists for that peer.
type gLeg struct {
	rank  int
	ghost []int
	owned []int
}

// Exchanger moves ghost-cell data between neighboring ranks of a block
// decomposition. One plan serves both directions:
//
//   - Accumulate: ghost contributions (e.g. CIC deposit spill) are added
//     into the owning rank's interior cells, then ghosts are zeroed.
//   - Fill: interior values are copied outward into neighbors' ghost halos
//     (e.g. before force interpolation of overloaded particles).
//
// The plan is built once per (decomposition, ghost width) and reused every
// step; only values move afterwards. Both directions split into Begin (pack
// + post non-blocking legs) and End (wait + unpack), so callers can overlap
// the exchange with computation; Accumulate/Fill are the sequential
// Begin+End compositions. oracle_test.go holds the dense all-to-all form
// the legs are checked against.
type Exchanger struct {
	comm *mpi.Comm
	// ghostSlots[r] lists my local ghost storage indices whose canonical
	// cell is owned by rank r; ownedIdx[r] lists my interior storage indices
	// that rank r's ghost slots mirror (in r's canonical order). Dense
	// (per-rank) form; legs holds the planned neighbor-only view of the
	// same lists.
	ghostSlots [][]int
	ownedIdx   [][]int
	legs       []gLeg
	// Self-wrap pairs (periodic images landing on the same rank).
	selfGhost []int
	selfOwned []int

	// Per-destination send buffers, reused across Accumulate/Fill calls
	// (the eager mpi sends copy outgoing payloads at post time, so the
	// buffers are free for the next Begin as soon as the posts return).
	send [][]float64

	id   int
	seq  int
	free []*GhostOp
}

// GhostOp is one in-flight ghost collective, produced by AccumulateBegin or
// FillBegin and completed by End. Ops are pooled by the exchanger, so the
// steady state allocates nothing.
type GhostOp struct {
	e    *Exchanger
	f    *Field
	fill bool
	reqs []mpi.Request // parallel to e.legs
}

// NewExchanger builds an exchange plan. Collective over comm; the field f
// supplies the local box shape and ghost width (its data is not touched).
func NewExchanger(c *mpi.Comm, d *Decomp, f *Field) *Exchanger {
	p := c.Size()
	me := c.Rank()
	pl := planGhosts(d, f, me)
	e := &Exchanger{
		comm:       c,
		id:         c.NextPlanID(),
		ghostSlots: pl.ghostSlots,
		ownedIdx:   make([][]int, p),
		selfGhost:  pl.selfGhost,
		selfOwned:  pl.selfOwned,
	}
	// Owners translate requested coordinates to interior indices. One-time
	// plan construction; the per-step path below uses only neighbor legs.
	recvd := mpi.AllToAll(c, pl.coords)
	for r := 0; r < p; r++ {
		cs := recvd[r]
		idx := make([]int, len(cs)/3)
		for i := range idx {
			x, y, z := int(cs[3*i]), int(cs[3*i+1]), int(cs[3*i+2])
			if !f.Box.Contains(x, y, z) {
				panic(fmt.Sprintf("grid: rank %d asked rank %d for non-owned cell (%d,%d,%d)", r, me, x, y, z))
			}
			idx[i] = f.index(x, y, z)
		}
		e.ownedIdx[r] = idx
	}
	// Neighbor legs: the ranks with traffic in either direction (the halo
	// geometry is symmetric, so both lists are non-empty together, but the
	// leg carries each direction's list independently).
	for r := 0; r < p; r++ {
		if len(e.ghostSlots[r]) == 0 && len(e.ownedIdx[r]) == 0 {
			continue
		}
		e.legs = append(e.legs, gLeg{rank: r, ghost: e.ghostSlots[r], owned: e.ownedIdx[r]})
	}
	return e
}

// NumLegs returns the number of planned neighbor legs (≤ the 26-stencil for
// sub-boxes wider than the ghost halo), for message-count accounting.
func (e *Exchanger) NumLegs() int { return len(e.legs) }

func (e *Exchanger) nextTag() int {
	t := tagGhostBase | (e.id&0xff)<<12 | (e.seq & 0xfff)
	e.seq++
	return t
}

// getOp pops a pooled op (or allocates the first time).
func (e *Exchanger) getOp(f *Field, fill bool) *GhostOp {
	var op *GhostOp
	if n := len(e.free); n > 0 {
		op = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		op = &GhostOp{e: e, reqs: make([]mpi.Request, len(e.legs))}
	}
	op.f = f
	op.fill = fill
	return op
}

// AccumulateBegin packs every remote ghost value and posts one message per
// neighbor leg plus the matching receives. Collective (all ranks must call
// their Begin/End pairs in the same order); complete with End.
func (e *Exchanger) AccumulateBegin(f *Field) *GhostOp {
	op := e.getOp(f, false)
	tag := e.nextTag()
	send := e.sendScratch()
	for li := range e.legs {
		leg := &e.legs[li]
		if len(leg.ghost) > 0 {
			buf := par.Resize(send[leg.rank], len(leg.ghost))
			for i, s := range leg.ghost {
				buf[i] = f.Data[s]
			}
			send[leg.rank] = buf
			mpi.Isend(e.comm, leg.rank, tag, buf)
		}
		if len(leg.owned) > 0 {
			mpi.IrecvInit(e.comm, leg.rank, tag, &op.reqs[li])
		}
	}
	return op
}

// FillBegin packs every interior value mirrored by a neighbor's halo and
// posts one message per leg plus the matching receives. Collective;
// complete with End.
func (e *Exchanger) FillBegin(f *Field) *GhostOp {
	op := e.getOp(f, true)
	tag := e.nextTag()
	send := e.sendScratch()
	for li := range e.legs {
		leg := &e.legs[li]
		if len(leg.owned) > 0 {
			buf := par.Resize(send[leg.rank], len(leg.owned))
			for i, idx := range leg.owned {
				buf[i] = f.Data[idx]
			}
			send[leg.rank] = buf
			mpi.Isend(e.comm, leg.rank, tag, buf)
		}
		if len(leg.ghost) > 0 {
			mpi.IrecvInit(e.comm, leg.rank, tag, &op.reqs[li])
		}
	}
	return op
}

// End waits for the op's neighbor legs and unpacks them (in rank order,
// matching the dense oracle bitwise), applies the self-wrap pairs, and — for
// accumulates — zeroes the ghost halo. The op returns to the pool.
func (op *GhostOp) End() {
	e := op.e
	f := op.f
	if op.fill {
		for li := range e.legs {
			leg := &e.legs[li]
			if len(leg.ghost) == 0 {
				continue
			}
			buf := mpi.WaitRecv[float64](&op.reqs[li])
			for i, s := range leg.ghost {
				f.Data[s] = buf[i]
			}
		}
		for i, s := range e.selfGhost {
			f.Data[s] = f.Data[e.selfOwned[i]]
		}
	} else {
		for li := range e.legs {
			leg := &e.legs[li]
			if len(leg.owned) == 0 {
				continue
			}
			buf := mpi.WaitRecv[float64](&op.reqs[li])
			for i, idx := range leg.owned {
				f.Data[idx] += buf[i]
			}
		}
		for i, s := range e.selfGhost {
			f.Data[e.selfOwned[i]] += f.Data[s]
		}
		f.ZeroGhosts()
	}
	op.f = nil
	e.free = append(e.free, op)
}

// Accumulate adds every ghost value into its owning cell (local pairs and
// remote ranks alike), then zeroes the ghost halo. Collective.
func (e *Exchanger) Accumulate(f *Field) { e.AccumulateBegin(f).End() }

// Fill copies interior values outward so every ghost slot holds the
// periodic value of its canonical cell. Collective.
func (e *Exchanger) Fill(f *Field) { e.FillBegin(f).End() }

// sendScratch returns the reusable per-destination send buffers, emptied
// (capacity retained).
func (e *Exchanger) sendScratch() [][]float64 {
	if e.send == nil {
		e.send = make([][]float64, e.comm.Size())
	}
	for r := range e.send {
		e.send[r] = e.send[r][:0]
	}
	return e.send
}

// ghostPlan is the rank-local half of an exchanger plan: every ghost slot
// of the extended box, in storage order, either paired with the interior
// cell it mirrors on this rank (selfGhost/selfOwned) or listed under its
// owner rank together with the canonical coordinates of the cell it mirrors
// (ghostSlots/coords, x,y,z triples), which the owner translates to its own
// interior indices.
type ghostPlan struct {
	selfGhost, selfOwned []int
	ghostSlots           [][]int
	coords               [][]int32
}

// planGhosts walks the ghost slots of f's extended box in storage order.
// Wrapping and ownership are separable per axis, so they come from per-axis
// tables over the extended coordinates — the wrapped global coordinate and
// the owner's process coordinate along that axis — and the interior is
// skipped a z-row span at a time. oracle_test.go holds the per-cell
// planner (wrap + RankOf per slot) the lists are checked against.
func planGhosts(d *Decomp, f *Field, me int) ghostPlan {
	g := f.Ghost
	var wc, oc [3][]int
	for a := 0; a < 3; a++ {
		wc[a] = make([]int, f.ext[a])
		oc[a] = make([]int, f.ext[a])
		cs := d.cuts[a]
		for l := range wc[a] {
			x := wrap(f.Box.Lo[a]+l-g, f.N[a])
			// The owner is the largest c with cuts[c] <= x (as in RankOf).
			c := 0
			for c+1 < d.Dims[a] && cs[c+1] <= x {
				c++
			}
			wc[a][l], oc[a][l] = x, c
		}
	}
	// Ownership is separable too, so each list's length is the product of
	// per-axis owner histograms (less the interior, which is mine): every
	// list is allocated once at its final size.
	var hist [3][]int
	for a := 0; a < 3; a++ {
		hist[a] = make([]int, d.Dims[a])
		for _, c := range oc[a] {
			hist[a][c]++
		}
	}
	p := d.NumRanks()
	pl := ghostPlan{ghostSlots: make([][]int, p), coords: make([][]int32, p)}
	for r := 0; r < p; r++ {
		cz := r % d.Dims[2]
		cy := (r / d.Dims[2]) % d.Dims[1]
		cx := r / (d.Dims[1] * d.Dims[2])
		k := hist[0][cx] * hist[1][cy] * hist[2][cz]
		if r == me {
			k -= f.size[0] * f.size[1] * f.size[2]
		}
		switch {
		case k == 0: // no traffic: the list stays nil
		case r == me:
			pl.selfGhost = make([]int, 0, k)
			pl.selfOwned = make([]int, 0, k)
		default:
			pl.ghostSlots[r] = make([]int, 0, k)
			pl.coords[r] = make([]int32, 0, 3*k)
		}
	}
	for lx := 0; lx < f.ext[0]; lx++ {
		inX := lx >= g && lx < g+f.size[0]
		for ly := 0; ly < f.ext[1]; ly++ {
			inXY := inX && ly >= g && ly < g+f.size[1]
			ownerXY := (oc[0][lx]*d.Dims[1] + oc[1][ly]) * d.Dims[2]
			row := (lx*f.ext[1] + ly) * f.ext[2]
			for lz := 0; lz < f.ext[2]; lz++ {
				if inXY && lz == g {
					lz = g + f.size[2] - 1 // skip the interior span
					continue
				}
				owner := ownerXY + oc[2][lz]
				cx, cy, cz := wc[0][lx], wc[1][ly], wc[2][lz]
				if owner == me {
					// The cell is in my box, so its interior slot needs no wrap.
					pl.selfGhost = append(pl.selfGhost, row+lz)
					pl.selfOwned = append(pl.selfOwned,
						((cx-f.Box.Lo[0]+g)*f.ext[1]+cy-f.Box.Lo[1]+g)*f.ext[2]+cz-f.Box.Lo[2]+g)
					continue
				}
				pl.ghostSlots[owner] = append(pl.ghostSlots[owner], row+lz)
				pl.coords[owner] = append(pl.coords[owner], int32(cx), int32(cy), int32(cz))
			}
		}
	}
	return pl
}

func wrap(x, n int) int { return ((x % n) + n) % n }
