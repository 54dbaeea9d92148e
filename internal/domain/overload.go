package domain

import (
	"fmt"
	"math"

	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// Domain owns one rank's particles: the Active set (particles whose
// canonical position lies inside the rank's box — their mass enters the
// Poisson solve) and the Passive set (replicas of neighbor particles within
// the overload shell, stored with unwrapped coordinates adjacent to the
// box). Passive particles receive the same force updates but are discarded
// and rebuilt from their owners at every Refresh, so replica divergence is
// bounded by the refresh cadence (paper §II, Fig. 4).
type Domain struct {
	Comm    *mpi.Comm
	Dec     *grid.Decomp
	Box     pfft.Box
	Ov      float64 // overload shell width in grid cells
	Active  Particles
	Passive Particles

	// Statistics for the bench harness.
	Migrated int64 // particles Migrate moved to a new owner (lifetime count)

	// origins records, for the passive set built by the most recent
	// Refresh/RefreshEnd, the contiguous owner segments
	// in storage order; see RefreshOrigins.
	origins []Origin

	catches []catch // where my actives must be replicated

	// plan is the persistent neighbor-stencil exchange plan behind
	// Migrate/Refresh (see exchange.go). MigrateDense below is the dense
	// all-to-all path for arbitrary-distance moves.
	plan *ExchangePlan

	// Per-destination communication scratch for MigrateDense, reused
	// across calls so it stops allocating once warm (mpi.Send copies
	// outgoing payloads, so reusing these between collectives is safe).
	// owners is shared with the planned path.
	owners []int
	dest   [][]int
	sendF  [][]float32
	sendI  [][]uint64
}

// catch says: actives inside box (a sub-box of mine, in my coordinates)
// must be sent to rank with positions shifted by shift.
type catch struct {
	rank  int
	shift [3]float32
	box   boxF
}

type boxF struct{ lo, hi [3]float64 }

func (b boxF) contains(x, y, z float64) bool {
	return x >= b.lo[0] && x < b.hi[0] &&
		y >= b.lo[1] && y < b.hi[1] &&
		z >= b.lo[2] && z < b.hi[2]
}

// New creates the domain for this rank. Collective over comm (plan
// construction is deterministic and local; no messages are sent).
func New(c *mpi.Comm, dec *grid.Decomp, overload float64) *Domain {
	me := c.Rank()
	d := &Domain{Comm: c, Dec: dec, Box: dec.Box(me), Ov: overload}
	if overload <= 0 {
		panic(fmt.Sprintf("domain: overload width must be positive, got %g", overload))
	}
	n := dec.N
	for i := 0; i < 3; i++ {
		if 2*overload >= float64(n[i]) {
			panic(fmt.Sprintf("domain: overload %g too wide for grid %v", overload, n))
		}
	}
	// Build the catch list: for every rank r and every periodic shift s,
	// the set of my cells within r's box expanded by the overload width.
	// A particle of mine at position q must appear on r at q+s when
	// q+s ∈ expand(box_r, ov). Excludes the identity (r==me, s==0).
	for r := 0; r < dec.NumRanks(); r++ {
		rb := dec.Box(r)
		for sx := -1; sx <= 1; sx++ {
			for sy := -1; sy <= 1; sy++ {
				for sz := -1; sz <= 1; sz++ {
					if r == me && sx == 0 && sy == 0 && sz == 0 {
						continue
					}
					shift := [3]float64{float64(sx * n[0]), float64(sy * n[1]), float64(sz * n[2])}
					cb, ok := overlapWithin(d.Box, rb, overload, shift)
					if !ok {
						continue
					}
					d.catches = append(d.catches, catch{
						rank:  r,
						shift: [3]float32{float32(shift[0]), float32(shift[1]), float32(shift[2])},
						box:   cb,
					})
				}
			}
		}
	}
	d.plan = newExchangePlan(d)
	return d
}

// overlapWithin returns the part of `mine` that lies within `margin` cells
// of rb shifted into my frame by shift — mine ∩ (expand(rb, margin) −
// shift) — and whether it is non-empty. Shared by the catch construction
// (margin = overload) and the exchange plan's neighbor-stencil test
// (margin = overload+2), which keeps the plan's leg set structurally a
// superset of the catch geometry.
func overlapWithin(mine, rb pfft.Box, margin float64, shift [3]float64) (boxF, bool) {
	var cb boxF
	for i := 0; i < 3; i++ {
		lo := float64(rb.Lo[i]) - margin - shift[i]
		hi := float64(rb.Hi[i]) + margin - shift[i]
		lo = math.Max(lo, float64(mine.Lo[i]))
		hi = math.Min(hi, float64(mine.Hi[i]))
		if hi <= lo {
			return boxF{}, false
		}
		cb.lo[i] = lo
		cb.hi[i] = hi
	}
	return cb, true
}

// Plan returns the persistent neighbor-stencil exchange plan.
func (d *Domain) Plan() *ExchangePlan { return d.plan }

// wrapPos reduces a coordinate into [0, n). In-range values (the vast
// majority) return untouched; out-of-range values take a single mod-based
// reduction, so arbitrarily fast particles cost O(1) instead of the old
// one-box-length-per-iteration loop. For single-box excursions the float64
// mod rounds to the same float32 as the old single add/subtract.
func wrapPos(x float32, n int) float32 {
	fn := float32(n)
	if x >= 0 && x < fn {
		return x
	}
	r := float32(math.Mod(float64(x), float64(n)))
	if r < 0 {
		r += fn
	}
	if r >= fn { // e.g. a tiny negative remainder rounded up to fn
		r = 0
	}
	return r
}

// commScratch returns the per-destination scratch slices, initialized on
// first use and reset to empty (capacity retained) on every call.
func (d *Domain) commScratch() (dest [][]int, sendF [][]float32, sendI [][]uint64) {
	p := d.Comm.Size()
	if d.dest == nil {
		d.dest = make([][]int, p)
		d.sendF = make([][]float32, p)
		d.sendI = make([][]uint64, p)
	}
	for r := 0; r < p; r++ {
		d.dest[r] = d.dest[r][:0]
		d.sendF[r] = d.sendF[r][:0]
		d.sendI[r] = d.sendI[r][:0]
	}
	return d.dest, d.sendF, d.sendI
}

// Migrate wraps active positions into the periodic box and transfers
// particles that left this rank's sub-box to their new owners over the
// planned neighbor legs. Collective. Equivalent to
// MigrateBegin + MigrateEnd.
func (d *Domain) Migrate() {
	d.MigrateBegin()
	d.MigrateEnd()
}

// Refresh rebuilds the passive (overloaded) particle set from the current
// active particles of all neighbors over the planned legs, replacing any
// diverged replicas. Collective. Equivalent to RefreshBegin + RefreshEnd.
func (d *Domain) Refresh() {
	d.RefreshBegin()
	d.RefreshEnd()
}

// MigrateDense moves every active particle to its owner over one dense
// all-to-all (O(P²) messages per call). Unlike Migrate it handles moves of
// any distance, which a rebalance, a restore and a re-decomposed snapshot
// need; it is also the equivalence oracle for the planned path. It leaves
// Migrated alone: that counter records drift across the planned stencil,
// and a repartition is not drift. Collective.
func (d *Domain) MigrateDense() {
	p := d.Comm.Size()
	a := &d.Active
	n := d.Dec.N
	dest, sendF, sendI := d.commScratch()
	// Pass 1: wrap and classify (no reordering yet — the send lists hold
	// indices into the current layout).
	if cap(d.owners) < a.Len() {
		d.owners = make([]int, a.Len())
	}
	owners := d.owners[:a.Len()]
	for i := 0; i < a.Len(); i++ {
		a.X[i] = wrapPos(a.X[i], n[0])
		a.Y[i] = wrapPos(a.Y[i], n[1])
		a.Z[i] = wrapPos(a.Z[i], n[2])
		r := d.Dec.RankOf(float64(a.X[i]), float64(a.Y[i]), float64(a.Z[i]))
		owners[i] = r
		if r != d.Comm.Rank() {
			dest[r] = append(dest[r], i)
		}
	}
	// Pass 2: pack departures while indices are still valid.
	for r := 0; r < p; r++ {
		if len(dest[r]) == 0 {
			continue
		}
		sendF[r] = a.packFloatsInto(sendF[r], dest[r], [3]float32{})
		sendI[r] = a.packIDsInto(sendI[r], dest[r])
	}
	// Pass 3: compact the stayers.
	stay := 0
	for i := 0; i < a.Len(); i++ {
		if owners[i] != d.Comm.Rank() {
			continue
		}
		if i != stay {
			a.Swap(i, stay)
		}
		stay++
	}
	a.Truncate(stay)
	recvF := mpi.AllToAll(d.Comm, sendF)
	recvI := mpi.AllToAll(d.Comm, sendI)
	for r := 0; r < p; r++ {
		a.unpack(recvF[r], recvI[r])
	}
}

// Origin is one contiguous segment of the passive store, attributed to the
// rank whose active particles it replicates.
type Origin struct {
	Rank int // owner rank of the replicated particles
	N    int // number of consecutive passive particles from that rank
}

// RefreshOrigins returns the owner segments of the passive store in storage
// order, as built by the most recent Refresh/RefreshEnd:
// one segment per neighbor leg (possibly empty) followed by the rank's own
// periodic self-images. Consumers that must route per-replica information
// back to the owner — the analysis boundary stitch — use this instead of
// re-deriving ownership from wrapped positions, which float32 shift
// round-off could misattribute at box edges. The slice is domain-owned and
// valid until the next refresh.
func (d *Domain) RefreshOrigins() []Origin { return d.origins }

// SetOrigins installs passive-origin segments restored from a checkpoint,
// replacing whatever the last refresh recorded. The segments must name
// valid ranks and cover the current passive store exactly — a checkpoint
// whose replica blocks and origin table disagree is rejected here rather
// than silently misattributing replicas. The slice is adopted
// (domain-owned afterwards, like RefreshOrigins' result).
func (d *Domain) SetOrigins(origins []Origin) error {
	n := 0
	for _, o := range origins {
		if o.Rank < 0 || o.Rank >= d.Comm.Size() {
			return fmt.Errorf("domain: restored origin names rank %d of %d", o.Rank, d.Comm.Size())
		}
		if o.N < 0 {
			return fmt.Errorf("domain: restored origin has negative length %d", o.N)
		}
		n += o.N
	}
	if n != d.Passive.Len() {
		return fmt.Errorf("domain: restored origins cover %d replicas, passive store holds %d", n, d.Passive.Len())
	}
	d.origins = origins
	return nil
}

// NGlobal returns the total number of active particles across all ranks.
// Collective.
func (d *Domain) NGlobal() int64 {
	tot := mpi.AllReduce(d.Comm, []int64{int64(d.Active.Len())}, mpi.SumI64)
	return tot[0]
}

// MemoryBytes estimates the particle memory held by this rank (actives and
// passive replicas), for the Table II/III memory columns.
func (d *Domain) MemoryBytes() int64 {
	per := int64(6*4 + 8)
	return per * int64(d.Active.Len()+d.Passive.Len())
}

// OverloadFraction returns the passive:active particle ratio, the paper's
// ~10% memory overhead figure for production-scale boxes.
func (d *Domain) OverloadFraction() float64 {
	if d.Active.Len() == 0 {
		return 0
	}
	return float64(d.Passive.Len()) / float64(d.Active.Len())
}
