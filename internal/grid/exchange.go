package grid

import (
	"fmt"

	"hacc/internal/mpi"
	"hacc/internal/par"
)

// span is a run of n consecutive storage cells starting at index at.
type span struct{ at, n int }

// wrapSpan is a self-wrap run: the n ghost slots from ghost mirror the n
// interior cells from owned, both on this rank.
type wrapSpan struct{ ghost, owned, n int }

// gLeg is one planned neighbor leg of the ghost exchange: the peer rank,
// my ghost runs that mirror its cells and my interior runs that its ghosts
// mirror, each list in message order, and their cell counts.
type gLeg struct {
	rank           int
	ghost, owned   []span
	nGhost, nOwned int
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
// step; only values move afterwards. It holds runs, not cells: every leg
// and the self-wraps are lists of z-runs whose concatenation is the
// message (or the wrap) in cell order, so a ghost-6 plan on a 32×64×64
// box is ≈ 8 k runs instead of ≈ 250 k cell indices, and packing and
// unpacking are copy (fill) and add (accumulate) loops over them. Both
// directions split into Begin (pack + send every leg) and End (receive +
// unpack), so callers can overlap the exchange with computation;
// Accumulate/Fill are the sequential Begin+End compositions. Every Begin
// draws a fresh tag from the exchanger's mpi.Tags, so several ghost
// collectives may be in flight at once — the three acceleration-component
// Fills pipelined against interpolation — and the density and acceleration
// exchangers of one simulation never match each other's messages. The
// dense all-to-all form the legs are checked against lives in
// oracle_test.go, with its own per-cell lists.
type Exchanger struct {
	comm *mpi.Comm
	legs []gLeg
	// self lists the periodic images landing on this rank.
	self []wrapSpan

	// send is the one pack buffer, reused leg after leg: the mpi runtime
	// copies or writes a payload before Send returns.
	send []float64

	tags mpi.Tags
	free []*GhostOp
}

// GhostOp is one in-flight ghost collective, produced by AccumulateBegin or
// FillBegin and completed by End. Ops are pooled by the exchanger, so the
// steady state allocates nothing.
type GhostOp struct {
	e    *Exchanger
	f    *Field
	fill bool
	tag  int
}

// NewExchanger builds an exchange plan. Collective over comm; the field f
// supplies the local box shape and ghost width (its data is not touched).
func NewExchanger(c *mpi.Comm, d *Decomp, f *Field) *Exchanger {
	pl := planGhosts(d, f, c.Rank())
	e := &Exchanger{comm: c, tags: c.NewTags(), self: pl.self}
	// Owners translate requested runs to interior runs. One-time plan
	// construction; the per-step path below uses only neighbor legs.
	recvd := mpi.AllToAll(c, pl.want)
	for r := range recvd {
		owned := f.ownedRuns(recvd[r], r)
		if len(pl.ghost[r]) == 0 && len(owned) == 0 {
			continue
		}
		// Neighbor legs: the ranks with traffic in either direction (the
		// halo geometry is symmetric, so both lists are non-empty together,
		// but the leg carries each direction's list independently).
		e.legs = append(e.legs, gLeg{rank: r, ghost: pl.ghost[r], owned: owned,
			nGhost: cells(pl.ghost[r]), nOwned: cells(owned)})
	}
	return e
}

// ownedRuns translates rank r's requested runs — (x, y, z, n) quads of
// canonical coordinates, n cells along z — to interior storage runs.
func (f *Field) ownedRuns(want []int32, r int) []span {
	if len(want) == 0 {
		return nil
	}
	runs := make([]span, len(want)/4)
	for i := range runs {
		x, y, z, n := int(want[4*i]), int(want[4*i+1]), int(want[4*i+2]), int(want[4*i+3])
		if !f.Box.Contains(x, y, z) || !f.Box.Contains(x, y, z+n-1) {
			panic(fmt.Sprintf("grid: rank %d asked for non-owned cells (%d,%d,%d..%d)", r, x, y, z, z+n-1))
		}
		runs[i] = span{at: f.index(x, y, z), n: n}
	}
	return runs
}

// cells counts the cells of a run list.
func cells(runs []span) int {
	k := 0
	for _, r := range runs {
		k += r.n
	}
	return k
}

// NumLegs returns the number of planned neighbor legs (≤ the 26-stencil for
// sub-boxes wider than the ghost halo), for message-count accounting.
func (e *Exchanger) NumLegs() int { return len(e.legs) }

// AccumulateBegin packs every remote ghost value and sends one message per
// neighbor leg. Collective (all ranks must call their Begin/End pairs in
// the same order); complete with End.
func (e *Exchanger) AccumulateBegin(f *Field) *GhostOp { return e.begin(f, false) }

// FillBegin packs every interior value mirrored by a neighbor's halo and
// sends one message per leg. Collective; complete with End.
func (e *Exchanger) FillBegin(f *Field) *GhostOp { return e.begin(f, true) }

// begin pops a pooled op (or allocates the first time), draws its tag and
// sends every leg's runs — the owned runs for a fill, the ghost runs for
// an accumulate — packed one leg at a time into the one pack buffer.
func (e *Exchanger) begin(f *Field, fill bool) *GhostOp {
	var op *GhostOp
	if n := len(e.free); n > 0 {
		op = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		op = &GhostOp{e: e}
	}
	op.f, op.fill, op.tag = f, fill, e.tags.Next()
	for li := range e.legs {
		leg := &e.legs[li]
		runs, n := leg.ghost, leg.nGhost
		if fill {
			runs, n = leg.owned, leg.nOwned
		}
		if n == 0 {
			continue
		}
		e.send = par.Resize(e.send, n)
		k := 0
		for _, r := range runs {
			k += copy(e.send[k:k+r.n], f.Data[r.at:r.at+r.n])
		}
		mpi.Send(e.comm, leg.rank, op.tag, e.send)
	}
	return op
}

// End receives the op's neighbor legs and unpacks them (in rank order,
// matching the dense oracle bitwise), applies the self-wraps, and — for
// accumulates — zeroes the ghost halo. The op returns to the pool.
func (op *GhostOp) End() {
	e := op.e
	data := op.f.Data
	if op.fill {
		for li := range e.legs {
			leg := &e.legs[li]
			if leg.nGhost == 0 {
				continue
			}
			buf := op.recvLeg(leg.rank, leg.nGhost)
			for _, r := range leg.ghost {
				buf = buf[copy(data[r.at:r.at+r.n], buf):]
			}
		}
		for _, w := range e.self {
			copy(data[w.ghost:w.ghost+w.n], data[w.owned:w.owned+w.n])
		}
	} else {
		for li := range e.legs {
			leg := &e.legs[li]
			if leg.nOwned == 0 {
				continue
			}
			buf := op.recvLeg(leg.rank, leg.nOwned)
			for _, r := range leg.owned {
				addInto(data[r.at:r.at+r.n], buf)
				buf = buf[r.n:]
			}
		}
		for _, w := range e.self {
			addInto(data[w.owned:w.owned+w.n], data[w.ghost:w.ghost+w.n])
		}
		op.f.ZeroGhosts()
	}
	op.f = nil
	e.free = append(e.free, op)
}

// recvLeg receives the op's message from rank, checking that it carries n
// cells.
func (op *GhostOp) recvLeg(rank, n int) []float64 {
	buf := mpi.Recv[float64](op.e.comm, rank, op.tag)
	if len(buf) != n {
		panic(fmt.Sprintf("grid: ghost leg from rank %d carried %d cells, want %d", rank, len(buf), n))
	}
	return buf
}

// addInto adds src[i] into dst[i] for every i < len(dst).
func addInto(dst, src []float64) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] += v
	}
}

// Accumulate adds every ghost value into its owning cell (local pairs and
// remote ranks alike), then zeroes the ghost halo. Collective.
func (e *Exchanger) Accumulate(f *Field) { e.AccumulateBegin(f).End() }

// Fill copies interior values outward so every ghost slot holds the
// periodic value of its canonical cell. Collective.
func (e *Exchanger) Fill(f *Field) { e.FillBegin(f).End() }

// ghostPlan is the rank-local half of an exchanger plan: the ghost slots
// of the extended box cut into z-runs, in storage order, each either a
// self-wrap (its canonical cells are mine) or listed under its owner rank
// (ghost) together with the canonical coordinates of its first cell and
// its length (want, x,y,z,n quads), which the owner translates to its own
// interior runs.
type ghostPlan struct {
	self  []wrapSpan
	ghost [][]span
	want  [][]int32
}

// zRun is a maximal run of extended z coordinates [lz, lz+n) with one owner
// process coordinate c and consecutive wrapped coordinates from z.
type zRun struct{ lz, n, c, z int }

// planGhosts walks the ghost slots of f's extended box in storage order,
// one z-row at a time. Wrapping and ownership are separable per axis, so
// they come from per-axis tables over the extended coordinates — the
// wrapped global coordinate and the owner's process coordinate along that
// axis — and a row is cut into runs where the z owner changes or the wrap
// jumps: every row outside the interior columns takes the full row's runs,
// every interior-column row the runs of its two z rims. A first pass
// counts each list, so every list is allocated once at its final length.
// oracle_test.go holds the per-cell planner (wrap + RankOf per slot) the
// expanded runs are checked against.
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
	zRuns := func(runs []zRun, lo, hi int) []zRun {
		for lz := lo; lz < hi; lz++ {
			if n := len(runs); n > 0 {
				r := &runs[n-1]
				if r.lz+r.n == lz && r.c == oc[2][lz] && r.z+r.n == wc[2][lz] {
					r.n++
					continue
				}
			}
			runs = append(runs, zRun{lz: lz, n: 1, c: oc[2][lz], z: wc[2][lz]})
		}
		return runs
	}
	full := zRuns(nil, 0, f.ext[2])
	rims := zRuns(zRuns(nil, 0, g), g+f.size[2], f.ext[2])
	walk := func(emit func(owner, slot int, r zRun, lx, ly int)) {
		for lx := 0; lx < f.ext[0]; lx++ {
			inX := lx >= g && lx < g+f.size[0]
			for ly := 0; ly < f.ext[1]; ly++ {
				runs := full
				if inX && ly >= g && ly < g+f.size[1] {
					runs = rims
				}
				ownerXY := (oc[0][lx]*d.Dims[1] + oc[1][ly]) * d.Dims[2]
				row := (lx*f.ext[1] + ly) * f.ext[2]
				for _, r := range runs {
					emit(ownerXY+r.c, row+r.lz, r, lx, ly)
				}
			}
		}
	}
	count := make([]int, d.NumRanks())
	walk(func(owner, _ int, _ zRun, _, _ int) { count[owner]++ })
	pl := ghostPlan{ghost: make([][]span, len(count)), want: make([][]int32, len(count))}
	for r, k := range count {
		switch {
		case k == 0: // no traffic: the list stays nil
		case r == me:
			pl.self = make([]wrapSpan, 0, k)
		default:
			pl.ghost[r] = make([]span, 0, k)
			pl.want[r] = make([]int32, 0, 4*k)
		}
	}
	walk(func(owner, slot int, r zRun, lx, ly int) {
		cx, cy := wc[0][lx], wc[1][ly]
		if owner == me {
			// The cells are in my box, so their interior slots need no wrap.
			pl.self = append(pl.self, wrapSpan{ghost: slot, n: r.n,
				owned: ((cx-f.Box.Lo[0]+g)*f.ext[1]+cy-f.Box.Lo[1]+g)*f.ext[2] + r.z - f.Box.Lo[2] + g})
			return
		}
		pl.ghost[owner] = append(pl.ghost[owner], span{at: slot, n: r.n})
		pl.want[owner] = append(pl.want[owner], int32(cx), int32(cy), int32(r.z), int32(r.n))
	})
	return pl
}

func wrap(x, n int) int { return ((x % n) + n) % n }
