package analysis

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"hacc/internal/domain"
	"hacc/internal/mpi"
	"hacc/internal/par"
)

// stitchLeg is one neighbor leg of the boundary stitch: the peer rank and
// a persistent send buffer, mirroring domain.exLeg.
type stitchLeg struct {
	rank int
	send []uint64
}

// recWords is the wire size of one boundary-group record: the group key,
// its active-member count, the minimum active member ID, and that member's
// position (float64 bits per axis).
const recWords = 6

// Plan is the persistent distributed FOF halo finder — the in-situ analysis
// mirror of domain.ExchangePlan. It is built once from the domain geometry
// and owns every piece of scratch the finder touches, so a warm FindHalos
// allocates nothing on one rank (multi-rank calls add only the mpi
// runtime's per-message copies).
//
// The algorithm: rank-local FOF over z-sorted columns of side ≥ b links
// this rank's actives plus the overloaded passive replicas (open boundaries
// — replicas carry unwrapped coordinates, so periodic links appear as plain
// spatial links to a self-image, which are glued back to their active
// counterparts locally). Groups that include replicas of remote actives are
// then stitched: each replica's (particle ID, local group key) is sent back
// to its owner over the 26-stencil neighbor legs, the owner records a
// union edge between its group and the remote key, and a small union-find
// reduction (an AllGather of edges plus boundary-group records — O(surface)
// data) resolves global group IDs identically on every rank. Halo
// properties are accumulated per rank over active members only, in a
// minimum-image frame anchored at the position of the group's minimum
// active particle ID, and combined with two short AllReduces.
//
// Correctness requires the linking length b ≤ the overload width (every
// cross-rank link then has both endpoints present on at least one rank)
// and that FindHalos runs on a fresh refresh (replicas consistent with
// their owners); FindHalos panics loudly on both violations.
//
// A Plan is collective state: every rank builds it and calls FindHalos in
// the same collective order.
type Plan struct {
	d    *domain.Domain
	comm *mpi.Comm
	pool *par.Pool

	legs    []stitchLeg
	rankLeg []int32 // comm rank -> leg index, -1 when not a neighbor
	// tags gives every stitch a fresh tag, so an analysis pass can overlap
	// the other plans' collectives in flight.
	tags mpi.Tags

	// Combined particle scratch: actives [0,na) then passives [na,n).
	x, y, z []float32
	na, n   int

	// Column mesh + lock-free union-find scratch, O(n + columns): particles
	// are binned on a 2-D (x, y) grid of cell side ≥ b and each column is
	// sorted by z. The link phase shards columns over the pool and unions
	// with CAS; union-by-minimum-index makes the final root of every
	// component its smallest member index, so the result is bitwise
	// independent of the thread count and of the order pairs are found in.
	parent     []int32
	colOf      []int32   // combined index -> column
	colStart   []int32   // column -> first slot; ncol+1 entries
	keys       []uint64  // slot -> zKey<<32 | combined index, z-sorted per column
	xs, ys, zs []float32 // positions in slot order
	cdims      [2]int
	mlo        [2]float64
	invB       float64
	b2, win    float32

	// Persistent pool-dispatch bodies (the spectral-solver pattern): per-call
	// parameters live in the fields above, published to the workers by the
	// pool's channel send, so dispatch allocates nothing.
	colBody  func(lo, hi int)
	sortBody func(lo, hi int)
	linkBody func(lo, hi int)

	idMap map[uint64]int32 // active particle ID -> active index

	// Per-group state (local group = one root of the local union-find).
	groupOf   []int32 // combined index -> local group
	rootGroup []int32 // root combined index -> local group, -1 elsewhere
	grpActN   []int32
	grpMinID  []uint64
	grpMinIdx []int32
	grpFlag   []uint8 // 1: has remote replica member, 2: edge endpoint
	grpRec    []int32 // local group -> local record index, -1 interior
	grpHalo   []int32 // local group -> output halo index, -1 not reported

	edges []uint64 // stitch edges (myKey, remoteKey pairs)
	recs  []uint64 // my boundary-group records (recWords each)

	// Global resolution scratch (sized to the gathered records).
	gRecIdx     map[uint64]int32
	recParent   []int32
	classOf     []int32
	grpClass    []int32 // local group -> class index, -1 interior
	classGID    []uint64
	classRef    []float64 // 3 per class: reference position
	classN      []int64
	classWinRnk []int32 // class -> rank owning the minimum-ID particle
	classHalo   []int32 // class -> my output halo index, -1 not mine

	sums      []float64 // 6 per class: Σdx Σdy Σdz Σvx Σvy Σvz (actives)
	classMean []float64 // 3 per class: mean offset in the reference frame
	rmax      []float64 // 1 per class
	sumsH     []float64 // 6 per interior reported halo
	meanH     []float64 // 3 per interior reported halo

	halos     []Halo
	memberCnt []int32
	memberOff []int32
	memberBuf []int32
	gids      []uint64
}

// NewPlan builds the persistent halo-finder plan for a domain. Purely local
// (the neighbor stencil is taken from the domain's exchange plan); pool may
// be nil for a serial finder.
func NewPlan(d *domain.Domain, pool *par.Pool) *Plan {
	p := &Plan{
		d:       d,
		comm:    d.Comm,
		pool:    pool,
		tags:    d.Comm.NewTags(),
		idMap:   map[uint64]int32{},
		gRecIdx: map[uint64]int32{},
		rankLeg: make([]int32, d.Comm.Size()),
	}
	for i := range p.rankLeg {
		p.rankLeg[i] = -1
	}
	for _, r := range d.Plan().Neighbors() {
		p.rankLeg[r] = int32(len(p.legs))
		p.legs = append(p.legs, stitchLeg{rank: r})
	}
	p.colBody = func(lo, hi int) {
		x, y := p.x, p.y
		mlo, inv := p.mlo, p.invB
		d1 := p.cdims[1]
		for i := lo; i < hi; i++ {
			cx := int((float64(x[i]) - mlo[0]) * inv)
			cy := int((float64(y[i]) - mlo[1]) * inv)
			p.colOf[i] = int32(cx*d1 + cy)
		}
	}
	p.sortBody = func(clo, chi int) {
		keys, x, y, z := p.keys, p.x, p.y, p.z
		for c := clo; c < chi; c++ {
			s, e := p.colStart[c], p.colStart[c+1]
			if e-s > 1 {
				slices.Sort(keys[s:e])
			}
			for k := s; k < e; k++ {
				i := uint32(keys[k])
				p.xs[k], p.ys[k], p.zs[k] = x[i], y[i], z[i]
			}
		}
	}
	p.linkBody = func(clo, chi int) {
		d0, d1 := p.cdims[0], p.cdims[1]
		for c := clo; c < chi; c++ {
			if p.colStart[c] == p.colStart[c+1] {
				continue // empty column: no pair has its lower column here
			}
			cx, cy := c/d1, c%d1
			p.linkColumns(c, c)
			for _, s := range fwdColumns {
				nx, ny := cx+s[0], cy+s[1]
				if nx >= d0 || ny < 0 || ny >= d1 {
					continue
				}
				p.linkColumns(c, nx*d1+ny)
			}
		}
	}
	return p
}

// NumLegs returns the number of stitch messages this rank sends per
// FindHalos call (one per 26-stencil neighbor leg).
func (p *Plan) NumLegs() int { return len(p.legs) }

// findAtomic returns the root of i with best-effort path halving. Safe for
// concurrent use during the pooled link phase; parent pointers only ever
// decrease, so the root of a finished component is its minimum index.
func findAtomic(parent []int32, i int32) int32 {
	for {
		pi := atomic.LoadInt32(&parent[i])
		if pi == i {
			return i
		}
		gp := atomic.LoadInt32(&parent[pi])
		if gp != pi {
			atomic.CompareAndSwapInt32(&parent[i], pi, gp) // losing the race is harmless
		}
		i = pi
	}
}

// unionAtomic merges the components of a and b, pointing the larger root at
// the smaller (lock-free; retries if another worker re-roots first).
func unionAtomic(parent []int32, a, b int32) {
	for {
		ra := findAtomic(parent, a)
		rb := findAtomic(parent, b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
			return
		}
		a, b = ra, rb
	}
}

// fwdColumns is the forward half of the 8 neighbor columns (each unordered
// column pair visited by exactly one worker, whichever owns the lower
// column).
var fwdColumns = [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}

// linkColumns unions every pair within distance b between columns c1 and
// c2 (each pair once when c1 == c2). Both columns are z-sorted, so for each
// particle of c1 the candidates in c2 are one contiguous z window, swept
// with a lower cursor that only advances. The window is tested on the same
// float32 difference the distance predicate squares: rounding is monotone,
// so zs[j]-za only grows along the column, and a pair passing the predicate
// has |zs[j]-za| ≤ b·(1+6e-8) < win.
func (p *Plan) linkColumns(c1, c2 int) {
	xs, ys, zs, keys, parent := p.xs, p.ys, p.zs, p.keys, p.parent
	b2, win := p.b2, p.win
	s1, e1 := p.colStart[c1], p.colStart[c1+1]
	lo, e2 := p.colStart[c2], p.colStart[c2+1]
	for a := s1; a < e1; a++ {
		xa, ya, za := xs[a], ys[a], zs[a]
		if c1 == c2 {
			lo = a + 1
		}
		for lo < e2 && zs[lo]-za < -win {
			lo++
		}
		for j := lo; j < e2; j++ {
			dz := zs[j] - za
			if dz > win {
				break
			}
			dx := xa - xs[j]
			dy := ya - ys[j]
			if dx*dx+dy*dy+dz*dz <= b2 {
				unionAtomic(parent, int32(uint32(keys[a])), int32(uint32(keys[j])))
			}
		}
	}
}

// columnSide is the column side for linking length b, padded a hair above
// b (see localFOF).
func columnSide(b float64) float64 { return b * (1 + 1e-6) }

// zKey maps a float32 to a uint32 (widened for packing) whose unsigned
// order is the float order, so one integer sort orders a column by z.
func zKey(z float32) uint64 {
	b := math.Float32bits(z)
	if b>>31 != 0 {
		return uint64(^b)
	}
	return uint64(b | 1<<31)
}

// groupKey packs (rank, local group) into the globally unique stitch key.
func groupKey(rank int, grp int32) uint64 { return uint64(rank)<<32 | uint64(uint32(grp)) }

// FindHalos runs the distributed friends-of-friends finder with linking
// length b (grid units, must not exceed the overload width) and keeps
// groups with at least minN members globally. Collective; must run on a
// fresh Refresh. Each halo is reported by exactly one rank — the owner of
// its minimum-ID particle — with globally reduced N, Mass, center of mass,
// mean velocity, and RMax; GID is the minimum member particle ID, a
// relabeling-free global identifier. Members holds this rank's combined
// active+passive indices of local members (the full membership when the
// halo radius is under the overload width). The returned slice and all
// halo storage are plan-owned, valid until the next FindHalos call.
func (p *Plan) FindHalos(b float64, minN int, particleMass float64) []Halo {
	if b <= 0 {
		panic(fmt.Sprintf("analysis: FOF linking length must be positive, got %g", b))
	}
	if minN < 1 {
		panic(fmt.Sprintf("analysis: minimum halo size must be ≥1, got %d", minN))
	}
	if b > p.d.Ov {
		panic(fmt.Sprintf("analysis: FOF linking length %g exceeds the overload width %g; cross-rank links would be lost (raise Config.Overload)", b, p.d.Ov))
	}
	act, pas := &p.d.Active, &p.d.Passive
	na, np := act.Len(), pas.Len()
	n := na + np
	p.na, p.n = na, n

	p.localFOF(b)
	p.enumerateGroups()
	p.stitch()
	nclass := p.resolveClasses()
	p.accumulate(minN, nclass, particleMass)
	p.fillMembersAndGIDs()

	slices.SortFunc(p.halos, compareHalos)
	return p.halos
}

// compareHalos orders by descending size then ascending GID (deterministic
// across rank counts and thread counts).
func compareHalos(a, b Halo) int {
	if a.N != b.N {
		return b.N - a.N
	}
	if a.GID < b.GID {
		return -1
	}
	if a.GID > b.GID {
		return 1
	}
	return 0
}

// GroupIDs returns, for each active particle of this rank, the global FOF
// group ID (minimum particle ID of its group) assigned by the last
// FindHalos call — the per-particle membership view used by the
// equivalence tests. Plan-owned, valid until the next call.
func (p *Plan) GroupIDs() []uint64 { return p.gids }

// localFOF gathers the combined particle arrays, bins them into z-sorted
// (x, y) columns of side ≥ b, and unions all pairs within distance b.
func (p *Plan) localFOF(b float64) {
	act, pas := &p.d.Active, &p.d.Passive
	na, n := p.na, p.n
	p.x = par.Resize(p.x, n)
	p.y = par.Resize(p.y, n)
	p.z = par.Resize(p.z, n)
	copy(p.x[:na], act.X)
	copy(p.y[:na], act.Y)
	copy(p.z[:na], act.Z)
	copy(p.x[na:], pas.X)
	copy(p.y[na:], pas.Y)
	copy(p.z[na:], pas.Z)

	p.parent = par.Resize(p.parent, n)
	for i := range p.parent {
		p.parent[i] = int32(i)
	}
	if n == 0 {
		return
	}

	// Column bounds. A pair passing the float32 predicate is at most
	// b·(1+2e-7) apart; the column side is padded to b·(1+1e-6) and column
	// coordinates are taken in float64 (exact differences, 1e-16 relative
	// products), so such a pair always lands in the same or adjacent
	// columns, at any coordinate magnitude.
	lo := [2]float32{p.x[0], p.y[0]}
	hi := lo
	for i := 0; i < n; i++ {
		lo[0], hi[0] = minf(lo[0], p.x[i]), maxf(hi[0], p.x[i])
		lo[1], hi[1] = minf(lo[1], p.y[i]), maxf(hi[1], p.y[i])
	}
	side := columnSide(b)
	p.invB = 1 / side
	p.b2 = float32(b * b)
	p.win = float32(side)
	for d := 0; d < 2; d++ {
		p.mlo[d] = float64(lo[d])
		p.cdims[d] = int((float64(hi[d])-p.mlo[d])*p.invB) + 2
	}
	ncol := p.cdims[0] * p.cdims[1]

	p.colOf = par.Resize(p.colOf, n)
	if p.pool != nil {
		p.pool.For(n, p.colBody)
	} else {
		p.colBody(0, n)
	}
	// Counting sort into columns. The fill advances each column's start to
	// the next column's start, so one shift restores the starts.
	p.colStart = par.Resize(p.colStart, ncol+1)
	clear(p.colStart)
	for _, c := range p.colOf {
		p.colStart[c+1]++
	}
	for c := 0; c < ncol; c++ {
		p.colStart[c+1] += p.colStart[c]
	}
	p.keys = par.Resize(p.keys, n)
	for i, c := range p.colOf {
		p.keys[p.colStart[c]] = zKey(p.z[i])<<32 | uint64(i)
		p.colStart[c]++
	}
	copy(p.colStart[1:], p.colStart[:ncol])
	p.colStart[0] = 0

	p.xs = par.Resize(p.xs, n)
	p.ys = par.Resize(p.ys, n)
	p.zs = par.Resize(p.zs, n)
	if p.pool != nil {
		p.pool.ForGrain(ncol, 64, p.sortBody)
		p.pool.ForGrain(ncol, 64, p.linkBody)
	} else {
		p.sortBody(0, ncol)
		p.linkBody(0, ncol)
	}

	// Glue periodic self-images and prepare the owner lookup for the stitch:
	// every active is indexed by ID, and every passive owned by this rank is
	// unioned with its active original.
	clear(p.idMap)
	for i := 0; i < na; i++ {
		p.idMap[act.ID[i]] = int32(i)
	}
	off := 0
	for _, seg := range p.d.RefreshOrigins() {
		if seg.Rank == p.comm.Rank() {
			for k := 0; k < seg.N; k++ {
				pi := off + k
				ai, ok := p.idMap[pas.ID[pi]]
				if !ok {
					panic("analysis: self-image replica has no active original; FindHalos must run on a fresh Refresh")
				}
				unionAtomic(p.parent, ai, int32(na+pi))
			}
		}
		off += seg.N
	}
	if off != pas.Len() {
		panic(fmt.Sprintf("analysis: refresh origins cover %d passives, store holds %d; FindHalos must run on a fresh Refresh", off, pas.Len()))
	}
}

// enumerateGroups flattens the union-find and numbers the local groups,
// recording per-group active counts and minimum active IDs.
func (p *Plan) enumerateGroups() {
	act := &p.d.Active
	na, n := p.na, p.n
	p.groupOf = par.Resize(p.groupOf, n)
	p.rootGroup = par.Resize(p.rootGroup, n)
	for i := range p.rootGroup {
		p.rootGroup[i] = -1
	}
	ngrp := int32(0)
	for i := 0; i < n; i++ {
		r := findAtomic(p.parent, int32(i))
		g := p.rootGroup[r]
		if g < 0 {
			g = ngrp
			p.rootGroup[r] = g
			ngrp++
		}
		p.groupOf[i] = g
	}
	p.grpActN = par.Resize(p.grpActN, int(ngrp))
	p.grpMinID = par.Resize(p.grpMinID, int(ngrp))
	p.grpMinIdx = par.Resize(p.grpMinIdx, int(ngrp))
	p.grpFlag = par.Resize(p.grpFlag, int(ngrp))
	for g := range p.grpActN {
		p.grpActN[g] = 0
		p.grpMinID[g] = math.MaxUint64
		p.grpMinIdx[g] = -1
		p.grpFlag[g] = 0
	}
	for i := 0; i < na; i++ {
		g := p.groupOf[i]
		p.grpActN[g]++
		if id := act.ID[i]; id < p.grpMinID[g] {
			p.grpMinID[g] = id
			p.grpMinIdx[g] = int32(i)
		}
	}
}

// stitch sends each remote replica's (particle ID, local group key) back to
// its owner over the neighbor legs and collects the union edges the owner
// side derives; groups touching either side of an edge are marked boundary
// and serialized into records for the global reduction.
func (p *Plan) stitch() {
	pas := &p.d.Passive
	me := p.comm.Rank()
	na := p.na
	for li := range p.legs {
		p.legs[li].send = p.legs[li].send[:0]
	}
	off := 0
	for _, seg := range p.d.RefreshOrigins() {
		if seg.Rank != me && seg.N > 0 {
			li := p.rankLeg[seg.Rank]
			if li < 0 {
				panic(fmt.Sprintf("analysis: passive replica from rank %d outside the neighbor stencil", seg.Rank))
			}
			leg := &p.legs[li]
			for k := 0; k < seg.N; k++ {
				pi := off + k
				g := p.groupOf[na+pi]
				p.grpFlag[g] |= 1
				leg.send = append(leg.send, pas.ID[pi], groupKey(me, g))
			}
		}
		off += seg.N
	}
	tag := p.tags.Next()
	for li := range p.legs {
		mpi.Send(p.comm, p.legs[li].rank, tag, p.legs[li].send)
	}
	p.edges = p.edges[:0]
	for li := range p.legs {
		buf := mpi.Recv[uint64](p.comm, p.legs[li].rank, tag)
		for k := 0; k+1 < len(buf); k += 2 {
			id, rkey := buf[k], buf[k+1]
			ai, ok := p.idMap[id]
			if !ok {
				panic("analysis: stitched replica has no active original here; FindHalos must run on a fresh Refresh")
			}
			g := p.groupOf[ai]
			p.grpFlag[g] |= 2
			p.edges = append(p.edges, groupKey(me, g), rkey)
		}
	}

	p.grpRec = par.Resize(p.grpRec, len(p.grpActN))
	p.recs = p.recs[:0]
	nrec := int32(0)
	for g := range p.grpActN {
		if p.grpFlag[g] == 0 {
			p.grpRec[g] = -1
			continue
		}
		p.grpRec[g] = nrec
		nrec++
		var px, py, pz uint64
		if mi := p.grpMinIdx[g]; mi >= 0 {
			px = math.Float64bits(float64(p.d.Active.X[mi]))
			py = math.Float64bits(float64(p.d.Active.Y[mi]))
			pz = math.Float64bits(float64(p.d.Active.Z[mi]))
		}
		p.recs = append(p.recs,
			groupKey(me, int32(g)), uint64(p.grpActN[g]), p.grpMinID[g], px, py, pz)
	}
}

// resolveClasses gathers every rank's edges and boundary-group records and
// runs the identical union-find on all ranks, producing the global classes:
// their IDs (minimum member particle ID), total sizes, winning records, and
// reference positions. Returns the class count (identical on every rank).
func (p *Plan) resolveClasses() int {
	gEdges, gRecs := p.edges, p.recs
	if p.comm.Size() > 1 {
		gEdges = mpi.AllGather(p.comm, p.edges)
		gRecs = mpi.AllGather(p.comm, p.recs)
	}
	nrec := len(gRecs) / recWords
	clear(p.gRecIdx)
	for r := 0; r < nrec; r++ {
		p.gRecIdx[gRecs[r*recWords]] = int32(r)
	}
	p.recParent = par.Resize(p.recParent, nrec)
	for r := range p.recParent {
		p.recParent[r] = int32(r)
	}
	for k := 0; k+1 < len(gEdges); k += 2 {
		a, okA := p.gRecIdx[gEdges[k]]
		b, okB := p.gRecIdx[gEdges[k+1]]
		if !okA || !okB {
			panic("analysis: stitch edge references a group without a record")
		}
		unionAtomic(p.recParent, a, b)
	}
	p.classOf = par.Resize(p.classOf, nrec)
	p.classGID = p.classGID[:0]
	p.classN = p.classN[:0]
	p.classWinRnk = p.classWinRnk[:0]
	p.classRef = p.classRef[:0]
	nclass := int32(0)
	for r := 0; r < nrec; r++ {
		root := findAtomic(p.recParent, int32(r))
		if int32(r) == root {
			p.classOf[r] = nclass
			nclass++
			p.classGID = append(p.classGID, math.MaxUint64)
			p.classN = append(p.classN, 0)
			p.classWinRnk = append(p.classWinRnk, -1)
			p.classRef = append(p.classRef, 0, 0, 0)
		} else {
			p.classOf[r] = p.classOf[root]
		}
	}
	for r := 0; r < nrec; r++ {
		c := p.classOf[r]
		rec := gRecs[r*recWords:]
		p.classN[c] += int64(rec[1])
		if rec[2] < p.classGID[c] {
			p.classGID[c] = rec[2]
			p.classWinRnk[c] = int32(rec[0] >> 32)
			p.classRef[3*c+0] = math.Float64frombits(rec[3])
			p.classRef[3*c+1] = math.Float64frombits(rec[4])
			p.classRef[3*c+2] = math.Float64frombits(rec[5])
		}
	}
	for c := int32(0); c < nclass; c++ {
		if p.classWinRnk[c] < 0 {
			panic("analysis: boundary class with no active members")
		}
	}
	// Map my boundary groups onto their classes.
	me := p.comm.Rank()
	p.grpClass = par.Resize(p.grpClass, len(p.grpActN))
	for g := range p.grpActN {
		if p.grpRec[g] < 0 {
			p.grpClass[g] = -1
			continue
		}
		ri, ok := p.gRecIdx[groupKey(me, int32(g))]
		if !ok {
			panic("analysis: local boundary group missing from the gathered records")
		}
		p.grpClass[g] = p.classOf[ri]
	}
	return int(nclass)
}

// minImage reduces a coordinate difference into (−n/2, n/2].
func minImage(d, n float64) float64 { return d - n*math.Round(d/n) }

// wrapF64 reduces a coordinate into [0, n).
func wrapF64(v, n float64) float64 {
	r := math.Mod(v, n)
	if r < 0 {
		r += n
	}
	if r >= n {
		r = 0
	}
	return r
}

// accumulate computes halo properties: interior groups entirely locally,
// boundary classes via per-rank partial sums over active members in the
// class reference frame plus two AllReduces (sums, then RMax).
func (p *Plan) accumulate(minN int, nclass int, particleMass float64) {
	act := &p.d.Active
	me := p.comm.Rank()
	na := p.na
	n := p.d.Dec.N
	fn := [3]float64{float64(n[0]), float64(n[1]), float64(n[2])}

	// Decide which halos this rank reports and create their (zeroed) slots:
	// interior groups of mine, then boundary classes whose minimum-ID
	// particle is active here.
	p.halos = p.halos[:0]
	p.grpHalo = par.Resize(p.grpHalo, len(p.grpActN))
	nInterior := 0
	for g := range p.grpActN {
		p.grpHalo[g] = -1
		if p.grpRec[g] < 0 && int(p.grpActN[g]) >= minN {
			p.grpHalo[g] = int32(len(p.halos))
			p.halos = append(p.halos, Halo{
				N:    int(p.grpActN[g]),
				GID:  p.grpMinID[g],
				Mass: float64(p.grpActN[g]) * particleMass,
			})
			nInterior++
		}
	}
	p.classHalo = par.Resize(p.classHalo, nclass)
	for c := 0; c < nclass; c++ {
		p.classHalo[c] = -1
		if int(p.classWinRnk[c]) == me && int(p.classN[c]) >= minN {
			p.classHalo[c] = int32(len(p.halos))
			p.halos = append(p.halos, Halo{
				N:    int(p.classN[c]),
				GID:  p.classGID[c],
				Mass: float64(p.classN[c]) * particleMass,
			})
		}
	}

	// Pass 1: minimum-image offset and velocity sums per target. Interior
	// halos accumulate into local per-halo slots; boundary groups into the
	// shared per-class vector that is reduced across ranks.
	p.sums = par.Resize(p.sums, 6*nclass)
	for i := range p.sums {
		p.sums[i] = 0
	}
	p.sumsH = par.Resize(p.sumsH, 6*nInterior)
	for i := range p.sumsH {
		p.sumsH[i] = 0
	}
	for i := 0; i < na; i++ {
		g := p.groupOf[i]
		var ref [3]float64
		var dst []float64
		if c := p.grpClass[g]; c >= 0 {
			ref = [3]float64{p.classRef[3*c], p.classRef[3*c+1], p.classRef[3*c+2]}
			dst = p.sums[6*c : 6*c+6]
		} else if h := p.grpHalo[g]; h >= 0 {
			mi := p.grpMinIdx[g]
			ref = [3]float64{float64(act.X[mi]), float64(act.Y[mi]), float64(act.Z[mi])}
			dst = p.sumsH[6*h : 6*h+6]
		} else {
			continue
		}
		dst[0] += minImage(float64(act.X[i])-ref[0], fn[0])
		dst[1] += minImage(float64(act.Y[i])-ref[1], fn[1])
		dst[2] += minImage(float64(act.Z[i])-ref[2], fn[2])
		dst[3] += float64(act.Vx[i])
		dst[4] += float64(act.Vy[i])
		dst[5] += float64(act.Vz[i])
	}
	if p.comm.Size() > 1 && nclass > 0 {
		red := mpi.AllReduce(p.comm, p.sums, mpi.SumF64)
		copy(p.sums, red)
	}

	// Finalize centers/velocities; keep the mean offsets for the RMax pass.
	p.meanH = par.Resize(p.meanH, 3*nInterior)
	p.classMean = par.Resize(p.classMean, 3*nclass)
	for g := range p.grpActN {
		h := p.grpHalo[g]
		if h < 0 || p.grpRec[g] >= 0 {
			continue
		}
		mi := p.grpMinIdx[g]
		ref := [3]float64{float64(act.X[mi]), float64(act.Y[mi]), float64(act.Z[mi])}
		p.finishHalo(int(h), ref, p.sumsH[6*h:6*h+6], p.meanH[3*h:3*h+3], fn)
	}
	for c := 0; c < nclass; c++ {
		s := p.sums[6*c : 6*c+6]
		cnt := float64(p.classN[c])
		mean := p.classMean[3*c : 3*c+3]
		mean[0], mean[1], mean[2] = s[0]/cnt, s[1]/cnt, s[2]/cnt
		if h := p.classHalo[c]; h >= 0 {
			ref := [3]float64{p.classRef[3*c], p.classRef[3*c+1], p.classRef[3*c+2]}
			p.finishHalo(int(h), ref, s, mean, fn)
		}
	}

	// Pass 2: RMax — max distance of any active member from the center of
	// mass, evaluated as |offset − mean offset| in the reference frame.
	p.rmax = par.Resize(p.rmax, nclass)
	for c := range p.rmax {
		p.rmax[c] = 0
	}
	for i := 0; i < na; i++ {
		g := p.groupOf[i]
		if c := p.grpClass[g]; c >= 0 {
			dx := minImage(float64(act.X[i])-p.classRef[3*c], fn[0]) - p.classMean[3*c]
			dy := minImage(float64(act.Y[i])-p.classRef[3*c+1], fn[1]) - p.classMean[3*c+1]
			dz := minImage(float64(act.Z[i])-p.classRef[3*c+2], fn[2]) - p.classMean[3*c+2]
			if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r > p.rmax[c] {
				p.rmax[c] = r
			}
		} else if h := p.grpHalo[g]; h >= 0 {
			mi := p.grpMinIdx[g]
			dx := minImage(float64(act.X[i])-float64(act.X[mi]), fn[0]) - p.meanH[3*h]
			dy := minImage(float64(act.Y[i])-float64(act.Y[mi]), fn[1]) - p.meanH[3*h+1]
			dz := minImage(float64(act.Z[i])-float64(act.Z[mi]), fn[2]) - p.meanH[3*h+2]
			if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r > p.halos[h].RMax {
				p.halos[h].RMax = r
			}
		}
	}
	if p.comm.Size() > 1 && nclass > 0 {
		red := mpi.AllReduce(p.comm, p.rmax, mpi.MaxF64)
		copy(p.rmax, red)
	}
	for c := 0; c < nclass; c++ {
		if h := p.classHalo[c]; h >= 0 {
			p.halos[h].RMax = p.rmax[c]
		}
	}
}

// finishHalo converts accumulated sums into a halo's center of mass (the
// reference position plus the mean minimum-image offset, wrapped into the
// box) and mean velocity, storing the mean offset for the RMax pass. The
// halo's N was set at slot creation.
func (p *Plan) finishHalo(h int, ref [3]float64, sums, mean []float64, fn [3]float64) {
	cnt := float64(p.halos[h].N)
	mean[0], mean[1], mean[2] = sums[0]/cnt, sums[1]/cnt, sums[2]/cnt
	p.halos[h].X = wrapF64(ref[0]+mean[0], fn[0])
	p.halos[h].Y = wrapF64(ref[1]+mean[1], fn[1])
	p.halos[h].Z = wrapF64(ref[2]+mean[2], fn[2])
	p.halos[h].VX = sums[3] / cnt
	p.halos[h].VY = sums[4] / cnt
	p.halos[h].VZ = sums[5] / cnt
}

// fillMembersAndGIDs builds per-halo local member lists (combined
// active+passive indices, grouped contiguously in plan-owned storage) and
// the per-active global group IDs.
func (p *Plan) fillMembersAndGIDs() {
	na, n := p.na, p.n
	nh := len(p.halos)
	p.memberCnt = par.Resize(p.memberCnt, nh)
	p.memberOff = par.Resize(p.memberOff, nh+1)
	for h := 0; h < nh; h++ {
		p.memberCnt[h] = 0
	}
	for i := 0; i < n; i++ {
		if h := p.haloOfGroup(p.groupOf[i]); h >= 0 {
			p.memberCnt[h]++
		}
	}
	p.memberOff[0] = 0
	for h := 0; h < nh; h++ {
		p.memberOff[h+1] = p.memberOff[h] + p.memberCnt[h]
	}
	p.memberBuf = par.Resize(p.memberBuf, int(p.memberOff[nh]))
	for h := 0; h < nh; h++ {
		p.memberCnt[h] = p.memberOff[h] // reuse as fill cursor
	}
	for i := 0; i < n; i++ {
		if h := p.haloOfGroup(p.groupOf[i]); h >= 0 {
			p.memberBuf[p.memberCnt[h]] = int32(i)
			p.memberCnt[h]++
		}
	}
	for h := 0; h < nh; h++ {
		p.halos[h].Members = p.memberBuf[p.memberOff[h]:p.memberOff[h+1]]
	}

	p.gids = par.Resize(p.gids, na)
	for i := 0; i < na; i++ {
		g := p.groupOf[i]
		if c := p.grpClass[g]; c >= 0 {
			p.gids[i] = p.classGID[c]
		} else {
			p.gids[i] = p.grpMinID[g]
		}
	}
}

// haloOfGroup maps a local group to the output halo it reports into on this
// rank, or -1.
func (p *Plan) haloOfGroup(g int32) int32 {
	if c := p.grpClass[g]; c >= 0 {
		return p.classHalo[c]
	}
	return p.grpHalo[g]
}
