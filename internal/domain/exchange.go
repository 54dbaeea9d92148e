package domain

import (
	"fmt"
	"sort"

	"hacc/internal/mpi"
)

const (
	pendNone = iota
	pendMigrate
	pendRefresh
)

// exLeg is one planned point-to-point transfer leg: a neighbor rank, the
// catch entries routed to it, and persistent pack/index storage so the warm
// exchange path allocates nothing.
type exLeg struct {
	rank    int
	catches []int32 // indices into Domain.catches targeting this rank, ascending
	idx     []int32 // migrate scratch: particle indices bound for this rank
	packed  []uint64
}

// ExchangePlan is the persistent neighbor-stencil particle-exchange plan, in
// the style of pfft.Redistributor: the neighbor set is derived once from the
// domain geometry, so Migrate and Refresh become point-to-point legs over at
// most the 26-stencil of sub-box neighbors (one packed message per leg per
// collective) instead of dense all-to-all sweeps over every rank. Both
// collectives split into Begin (classify + pack + send) and End (receive +
// unpack), which is what lets core hide the exchange behind computation;
// all index lists and pack buffers are plan-owned. Every Begin draws a
// fresh tag from the plan's mpi.Tags, so a rank still in a deferred
// RefreshEnd cannot take a faster peer's next MigrateBegin messages, nor
// another plan's.
//
// A plan is collective state: every rank builds it in Domain.New and must
// issue Begin/End calls in the same collective order.
type ExchangePlan struct {
	d *Domain

	legs    []exLeg // ascending rank order, self excluded
	rankLeg []int32 // comm rank -> index into legs, -1 when not a neighbor

	selfCatches []int32 // catches with rank == me (periodic self-images)
	selfPacked  []uint64

	// Single-pass refresh classification: the catch boxes are axis-aligned,
	// so their bounds cut the rank's box into a small grid of intervals per
	// axis (bp); every interval triple is covered by a fixed catch subset
	// (hits), precomputed at plan time. Classifying a particle is then three
	// tiny interval lookups plus appends to the catch index lists, one O(N)
	// pass in total, instead of one full particle scan per catch entry.
	bp       [3][]float64
	nIv      [3]int
	hits     [][]int32
	catchIdx [][]int32 // per-catch particle index lists, reused across steps

	tags    mpi.Tags
	tag     int // the in-flight collective's tag
	pending int

	neighbors []int // lazily materialized leg-rank list for Neighbors
}

// newExchangePlan derives the neighbor stencil and classification table.
// Purely local (no communication).
func newExchangePlan(d *Domain) *ExchangePlan {
	me := d.Comm.Rank()
	p := d.Comm.Size()
	pl := &ExchangePlan{d: d, tags: d.Comm.NewTags(), rankLeg: make([]int32, p)}
	for i := range pl.rankLeg {
		pl.rankLeg[i] = -1
	}

	// Neighbor membership uses reach = overload + 2 cells, matching the
	// deposit halo in core (overload shell + CIC stencil + drift margin):
	// any particle the field indexing admits must have a leg to its owner
	// at Migrate time. Refresh traffic (catch geometry, width Ov < reach,
	// tested with the same overlapWithin the catches are built from) is
	// then automatically confined to the same legs.
	reach := d.Ov + 2
	n := d.Dec.N
	for r := 0; r < p; r++ {
		if r == me {
			continue
		}
		rb := d.Dec.Box(r)
		near := false
		for sx := -1; sx <= 1 && !near; sx++ {
			for sy := -1; sy <= 1 && !near; sy++ {
				for sz := -1; sz <= 1 && !near; sz++ {
					shift := [3]float64{float64(sx * n[0]), float64(sy * n[1]), float64(sz * n[2])}
					_, ok := overlapWithin(d.Box, rb, reach, shift)
					near = near || ok
				}
			}
		}
		if near {
			pl.rankLeg[r] = int32(len(pl.legs))
			pl.legs = append(pl.legs, exLeg{rank: r})
		}
	}

	// Route catch entries onto legs (global catch order is preserved within
	// each leg, which keeps planned pack order bitwise identical to the
	// dense path's per-rank buffers).
	for ci, c := range d.catches {
		if c.rank == me {
			pl.selfCatches = append(pl.selfCatches, int32(ci))
			continue
		}
		li := pl.rankLeg[c.rank]
		if li < 0 {
			panic(fmt.Sprintf("domain: catch targets rank %d outside the %g-cell neighbor stencil", c.rank, reach))
		}
		pl.legs[li].catches = append(pl.legs[li].catches, int32(ci))
	}

	// Classification table: per-axis breakpoints are the catch box bounds
	// (already clamped to my box), so catch membership is constant on every
	// interval and the midpoint test below is exact.
	for axis := 0; axis < 3; axis++ {
		bp := []float64{float64(d.Box.Lo[axis]), float64(d.Box.Hi[axis])}
		for _, c := range d.catches {
			bp = append(bp, c.box.lo[axis], c.box.hi[axis])
		}
		sort.Float64s(bp)
		uniq := bp[:1]
		for _, v := range bp[1:] {
			if v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		pl.bp[axis] = uniq
		pl.nIv[axis] = len(uniq) - 1
	}
	cov := make([][3][]bool, len(d.catches))
	for ci, c := range d.catches {
		for axis := 0; axis < 3; axis++ {
			bp := pl.bp[axis]
			cv := make([]bool, pl.nIv[axis])
			for i := range cv {
				mid := 0.5 * (bp[i] + bp[i+1])
				cv[i] = mid >= c.box.lo[axis] && mid < c.box.hi[axis]
			}
			cov[ci][axis] = cv
		}
	}
	pl.hits = make([][]int32, pl.nIv[0]*pl.nIv[1]*pl.nIv[2])
	for ix := 0; ix < pl.nIv[0]; ix++ {
		for iy := 0; iy < pl.nIv[1]; iy++ {
			for iz := 0; iz < pl.nIv[2]; iz++ {
				var list []int32
				for ci := range d.catches {
					if cov[ci][0][ix] && cov[ci][1][iy] && cov[ci][2][iz] {
						list = append(list, int32(ci))
					}
				}
				pl.hits[(ix*pl.nIv[1]+iy)*pl.nIv[2]+iz] = list
			}
		}
	}
	pl.catchIdx = make([][]int32, len(d.catches))
	return pl
}

// NumLegs returns the number of point-to-point neighbor legs (per-collective
// messages sent by this rank), for message-count accounting.
func (pl *ExchangePlan) NumLegs() int { return len(pl.legs) }

// Neighbors returns the neighbor ranks of this rank's 26-stencil exchange
// legs, in leg (ascending rank) order. The slice is plan-owned; callers that
// build their own point-to-point protocols over the same stencil (the
// analysis stitch, for one) must not modify it.
func (pl *ExchangePlan) Neighbors() []int {
	if pl.neighbors == nil {
		pl.neighbors = make([]int, len(pl.legs))
		for i := range pl.legs {
			pl.neighbors[i] = pl.legs[i].rank
		}
	}
	return pl.neighbors
}

// interval returns the index i with bp[i] <= x < bp[i+1]. bp is tiny (a
// handful of catch bounds), so a linear scan beats a binary search.
func interval(bp []float64, x float64) int {
	i := 0
	for i+2 < len(bp) && x >= bp[i+1] {
		i++
	}
	return i
}

// classify rebuilds the per-catch particle index lists in one pass over the
// actives. Positions must be canonical (inside the rank's box).
func (pl *ExchangePlan) classify() {
	a := &pl.d.Active
	for i := range pl.catchIdx {
		pl.catchIdx[i] = pl.catchIdx[i][:0]
	}
	bx, by, bz := pl.bp[0], pl.bp[1], pl.bp[2]
	niy, niz := pl.nIv[1], pl.nIv[2]
	for i := 0; i < a.Len(); i++ {
		ix := interval(bx, float64(a.X[i]))
		iy := interval(by, float64(a.Y[i]))
		iz := interval(bz, float64(a.Z[i]))
		for _, ci := range pl.hits[(ix*niy+iy)*niz+iz] {
			pl.catchIdx[ci] = append(pl.catchIdx[ci], int32(i))
		}
	}
}

// MigrateBegin wraps active positions, classifies departures onto the
// neighbor legs, compacts the stayers, and sends one packed message per
// leg. Collective; complete with MigrateEnd.
func (d *Domain) MigrateBegin() {
	pl := d.plan
	if pl.pending != pendNone {
		panic("domain: MigrateBegin with an exchange already in flight")
	}
	pl.pending = pendMigrate
	pl.tag = pl.tags.Next()
	a := &d.Active
	n := d.Dec.N
	me := d.Comm.Rank()
	if cap(d.owners) < a.Len() {
		d.owners = make([]int, a.Len())
	}
	owners := d.owners[:a.Len()]
	for li := range pl.legs {
		pl.legs[li].idx = pl.legs[li].idx[:0]
	}
	for i := 0; i < a.Len(); i++ {
		a.X[i] = wrapPos(a.X[i], n[0])
		a.Y[i] = wrapPos(a.Y[i], n[1])
		a.Z[i] = wrapPos(a.Z[i], n[2])
		r := d.Dec.RankOf(float64(a.X[i]), float64(a.Y[i]), float64(a.Z[i]))
		owners[i] = r
		if r == me {
			continue
		}
		li := pl.rankLeg[r]
		if li < 0 {
			panic(fmt.Sprintf(
				"domain: particle %d at (%g,%g,%g) moved to non-neighbor rank %d in one step (> overload+2 = %g cells); raise Overload or shorten the step",
				i, a.X[i], a.Y[i], a.Z[i], r, d.Ov+2))
		}
		pl.legs[li].idx = append(pl.legs[li].idx, int32(i))
	}
	// Pack departures while indices are valid, then compact the stayers.
	var moved int64
	for li := range pl.legs {
		leg := &pl.legs[li]
		leg.packed = a.packParticlesInto(leg.packed[:0], leg.idx, [3]float32{})
		moved += int64(len(leg.idx))
	}
	stay := 0
	for i := 0; i < a.Len(); i++ {
		if owners[i] != me {
			continue
		}
		if i != stay {
			a.Swap(i, stay)
		}
		stay++
	}
	a.Truncate(stay)
	for li := range pl.legs {
		leg := &pl.legs[li]
		mpi.Send(d.Comm, leg.rank, pl.tag, leg.packed)
	}
	d.Migrated += moved
}

// MigrateEnd receives the neighbor legs and unpacks arrivals (in rank
// order, matching the dense path bitwise).
func (d *Domain) MigrateEnd() {
	pl := d.plan
	if pl.pending != pendMigrate {
		panic("domain: MigrateEnd without MigrateBegin")
	}
	for li := range pl.legs {
		d.Active.unpackParticles(mpi.Recv[uint64](d.Comm, pl.legs[li].rank, pl.tag))
	}
	pl.pending = pendNone
}

// RefreshBegin classifies every active against the catch list in a single
// pass, packs per-leg replica messages, and sends them.
// Collective; complete with RefreshEnd. Active positions must already be
// canonical (call Migrate first after any position update). The passive set
// keeps its previous (stale) contents until RefreshEnd runs, so analysis
// reading actives may overlap the exchange.
func (d *Domain) RefreshBegin() {
	pl := d.plan
	if pl.pending != pendNone {
		panic("domain: RefreshBegin with an exchange already in flight")
	}
	pl.pending = pendRefresh
	pl.tag = pl.tags.Next()
	pl.classify()
	a := &d.Active
	pl.selfPacked = pl.selfPacked[:0]
	for _, ci := range pl.selfCatches {
		pl.selfPacked = a.packParticlesInto(pl.selfPacked, pl.catchIdx[ci], d.catches[ci].shift)
	}
	for li := range pl.legs {
		leg := &pl.legs[li]
		leg.packed = leg.packed[:0]
		for _, ci := range leg.catches {
			leg.packed = a.packParticlesInto(leg.packed, pl.catchIdx[ci], d.catches[ci].shift)
		}
		mpi.Send(d.Comm, leg.rank, pl.tag, leg.packed)
	}
}

// RefreshEnd receives the neighbor legs and rebuilds the passive set:
// remote replicas in rank order, then the rank's own periodic images —
// the same order as the dense path, so the result is bitwise identical.
func (d *Domain) RefreshEnd() {
	pl := d.plan
	if pl.pending != pendRefresh {
		panic("domain: RefreshEnd without RefreshBegin")
	}
	d.Passive.Reset()
	d.origins = d.origins[:0]
	for li := range pl.legs {
		n0 := d.Passive.Len()
		d.Passive.unpackParticles(mpi.Recv[uint64](d.Comm, pl.legs[li].rank, pl.tag))
		d.origins = append(d.origins, Origin{Rank: pl.legs[li].rank, N: d.Passive.Len() - n0})
	}
	n0 := d.Passive.Len()
	d.Passive.unpackParticles(pl.selfPacked)
	d.origins = append(d.origins, Origin{Rank: d.Comm.Rank(), N: d.Passive.Len() - n0})
	pl.pending = pendNone
}
