package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/race"
	"hacc/internal/spectral"
)

// fofFixture is a deterministic global particle set designed to exercise
// every stitch path: blobs straddling the 8-rank corner, a face, the
// periodic wrap in one and in all three axes, a chain crossing a face, and
// scattered singles. IDs are a non-monotonic permutation so the minimum-ID
// ownership rule is exercised nontrivially.
type fofFixture struct {
	x, y, z    []float32
	vx, vy, vz []float32
	ids        []uint64
	n          [3]int
}

func makeFOFFixture(seed int64) *fofFixture {
	f := &fofFixture{n: [3]int{16, 16, 16}}
	rng := rand.New(rand.NewSource(seed))
	blob := func(cx, cy, cz float64, sigma float64, count int) {
		for i := 0; i < count; i++ {
			f.x = append(f.x, float32(wrapF64(cx+rng.NormFloat64()*sigma, 16)))
			f.y = append(f.y, float32(wrapF64(cy+rng.NormFloat64()*sigma, 16)))
			f.z = append(f.z, float32(wrapF64(cz+rng.NormFloat64()*sigma, 16)))
		}
	}
	blob(8, 8, 8, 0.3, 60)        // 8-rank corner
	blob(8, 4, 4, 0.3, 40)        // face between two ranks
	blob(0.1, 8, 8, 0.3, 50)      // wraps in x
	blob(0.1, 0.1, 0.1, 0.35, 70) // wraps in all three axes
	blob(12, 12, 12, 0.25, 30)    // interior of one rank
	// A chain crossing the x=8 face, spaced 0.4 cells.
	for i := 0; i < 14; i++ {
		f.x = append(f.x, float32(5.5+0.4*float64(i)))
		f.y = append(f.y, 12)
		f.z = append(f.z, 4)
	}
	// Scattered singles.
	for i := 0; i < 40; i++ {
		f.x = append(f.x, rng.Float32()*16)
		f.y = append(f.y, rng.Float32()*16)
		f.z = append(f.z, rng.Float32()*16)
	}
	n := len(f.x)
	for i := 0; i < n; i++ {
		f.vx = append(f.vx, rng.Float32()-0.5)
		f.vy = append(f.vy, rng.Float32()-0.5)
		f.vz = append(f.vz, rng.Float32()-0.5)
	}
	// Unique, shuffled, non-contiguous IDs.
	perm := rng.Perm(n)
	f.ids = make([]uint64, n)
	for i := 0; i < n; i++ {
		f.ids[i] = uint64(perm[i])*7919 + 13
	}
	return f
}

// wireHalo flattens a halo for gathering (Members excluded).
func wireHalo(h Halo) []float64 {
	return []float64{float64(h.GID), float64(h.N), h.Mass, h.X, h.Y, h.Z, h.VX, h.VY, h.VZ, h.RMax}
}

const wireLen = 10

func TestDistributedFOFMatchesDense(t *testing.T) {
	const (
		b    = 0.7
		minN = 10
		ov   = 2.0
	)
	fix := makeFOFFixture(42)
	want := FOFDense(fix.x, fix.y, fix.z, fix.vx, fix.vy, fix.vz, fix.ids, fix.n, b, minN)
	if len(want) < 6 {
		t.Fatalf("weak fixture: only %d oracle halos", len(want))
	}
	// Full partition (minN=1) for the membership comparison.
	part := FOFDense(fix.x, fix.y, fix.z, nil, nil, nil, fix.ids, fix.n, b, 1)
	wantGID := map[uint64]uint64{} // particle ID -> oracle group ID
	for _, h := range part {
		for _, m := range h.Members {
			wantGID[fix.ids[m]] = h.GID
		}
	}

	worlds := []int{1, 8}
	if !testing.Short() {
		worlds = append(worlds, 64)
	}
	for _, ranks := range worlds {
		for _, threads := range []int{0, 3} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", ranks, threads), func(t *testing.T) {
				err := mpi.Run(ranks, func(c *mpi.Comm) {
					dec := grid.NewDecomp(fix.n, ranks)
					d := domain.New(c, dec, ov)
					for i := range fix.x {
						if dec.RankOf(float64(fix.x[i]), float64(fix.y[i]), float64(fix.z[i])) == c.Rank() {
							d.Active.Append(fix.x[i], fix.y[i], fix.z[i], fix.vx[i], fix.vy[i], fix.vz[i], fix.ids[i])
						}
					}
					d.Refresh()
					// Pools are per-rank (dispatch is not reentrant); odd
					// ranks stay serial so mixed worlds are exercised too.
					var myPool *par.Pool
					if threads > 0 && c.Rank()%2 == 0 {
						myPool = par.NewPool(threads)
					}
					pl := NewPlan(d, myPool)
					halos := pl.FindHalos(b, minN, 1)

					// Each halo reported exactly once, with correct global
					// properties: gather and compare on rank 0.
					var flat []float64
					for _, h := range halos {
						flat = append(flat, wireHalo(h)...)
					}
					var pairs []uint64 // (particle ID, group ID) per active
					gids := pl.GroupIDs()
					for i := 0; i < d.Active.Len(); i++ {
						pairs = append(pairs, d.Active.ID[i], gids[i])
					}
					allHalos := mpi.Gather(c, 0, flat)
					allPairs := mpi.Gather(c, 0, pairs)
					if c.Rank() != 0 {
						return
					}
					if got, wantN := len(allHalos)/wireLen, len(want); got != wantN {
						t.Errorf("catalog size %d want %d", got, wantN)
					}
					byGID := map[uint64][]float64{}
					for k := 0; k+wireLen <= len(allHalos); k += wireLen {
						rec := allHalos[k : k+wireLen]
						gid := uint64(rec[0])
						if _, dup := byGID[gid]; dup {
							t.Errorf("halo GID %d reported by more than one rank", gid)
						}
						byGID[gid] = rec
					}
					fn := [3]float64{16, 16, 16}
					for _, w := range want {
						rec, ok := byGID[w.GID]
						if !ok {
							t.Errorf("oracle halo GID %d (N=%d) missing from distributed catalog", w.GID, w.N)
							continue
						}
						if int(rec[1]) != w.N {
							t.Errorf("GID %d: N=%d want %d", w.GID, int(rec[1]), w.N)
						}
						if math.Abs(rec[2]-w.Mass) > 1e-9 {
							t.Errorf("GID %d: mass %g want %g", w.GID, rec[2], w.Mass)
						}
						for a, wc := range []float64{w.X, w.Y, w.Z} {
							if d := math.Abs(minImage(rec[3+a]-wc, fn[a])); d > 1e-9 {
								t.Errorf("GID %d: center axis %d = %g want %g", w.GID, a, rec[3+a], wc)
							}
						}
						for a, wv := range []float64{w.VX, w.VY, w.VZ} {
							if math.Abs(rec[6+a]-wv) > 1e-9 {
								t.Errorf("GID %d: velocity axis %d = %g want %g", w.GID, a, rec[6+a], wv)
							}
						}
						if math.Abs(rec[9]-w.RMax) > 1e-9 {
							t.Errorf("GID %d: rmax %g want %g", w.GID, rec[9], w.RMax)
						}
					}

					// Membership: the global partition must match the oracle
					// exactly (GID = min member ID, so no relabeling map is
					// even needed).
					if len(allPairs)/2 != len(fix.ids) {
						t.Errorf("partition covers %d particles want %d", len(allPairs)/2, len(fix.ids))
					}
					for k := 0; k+1 < len(allPairs); k += 2 {
						id, gid := allPairs[k], allPairs[k+1]
						if gid != wantGID[id] {
							t.Errorf("particle %d: group %d want %d", id, gid, wantGID[id])
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDistributedFOFWarmRepeat pins plan reuse: repeated FindHalos calls on
// fresh refreshes return identical catalogs.
func TestDistributedFOFWarmRepeat(t *testing.T) {
	fix := makeFOFFixture(7)
	err := mpi.Run(8, func(c *mpi.Comm) {
		dec := grid.NewDecomp(fix.n, 8)
		d := domain.New(c, dec, 2)
		for i := range fix.x {
			if dec.RankOf(float64(fix.x[i]), float64(fix.y[i]), float64(fix.z[i])) == c.Rank() {
				d.Active.Append(fix.x[i], fix.y[i], fix.z[i], fix.vx[i], fix.vy[i], fix.vz[i], fix.ids[i])
			}
		}
		d.Refresh()
		pl := NewPlan(d, nil)
		first := append([]float64(nil), flatCatalog(pl.FindHalos(0.7, 5, 1))...)
		for rep := 0; rep < 3; rep++ {
			d.Refresh()
			again := flatCatalog(pl.FindHalos(0.7, 5, 1))
			if len(again) != len(first) {
				t.Errorf("rep %d: catalog length changed", rep)
				return
			}
			for i := range again {
				if again[i] != first[i] {
					t.Errorf("rep %d: catalog drifted at word %d", rep, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func flatCatalog(halos []Halo) []float64 {
	var flat []float64
	for _, h := range halos {
		flat = append(flat, wireHalo(h)...)
	}
	return flat
}

// TestPlanFindHalosValidation pins the loud-failure contract for senseless
// arguments.
func TestPlanFindHalosValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp([3]int{16, 16, 16}, 1)
		d := domain.New(c, dec, 2)
		d.Refresh()
		pl := NewPlan(d, nil)
		for name, fn := range map[string]func(){
			"zero linking length":     func() { pl.FindHalos(0, 10, 1) },
			"negative linking length": func() { pl.FindHalos(-0.2, 10, 1) },
			"zero min size":           func() { pl.FindHalos(0.2, 0, 1) },
			"linking beyond overload": func() { pl.FindHalos(3.0, 10, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				fn()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPowerInSituMatchesSerial pins the pencil-r2c estimator against the
// retained full-complex serial oracle to 1e-12 relative, including exact
// mode counts, across rank counts, pool sizes, and warm plan reuse.
func TestPowerInSituMatchesSerial(t *testing.T) {
	const (
		ng  = 24
		np  = 24
		box = 400.0
	)
	params := cosmology.Default()
	lp := cosmology.NewLinearPower(params, cosmology.EisensteinHuNoWiggle(params))
	for _, ranks := range []int{1, 4} {
		for _, threads := range []int{0, 2} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", ranks, threads), func(t *testing.T) {
				err := mpi.Run(ranks, func(c *mpi.Comm) {
					var pool *par.Pool
					if threads > 0 {
						pool = par.NewPool(threads) // per rank: dispatch is not reentrant
					}
					dec := grid.NewDecomp([3]int{ng, ng, ng}, ranks)
					dom := domain.New(c, dec, 2)
					o := ic.Options{Np: np, BoxMpc: box, AInit: 0.05, Seed: 19, Fixed: true}
					if err := ic.Generate(c, dec, lp, o, dom); err != nil {
						t.Error(err)
						return
					}
					want := powerSerial(c, dec, dom, box, 11, true)
					pw := newPower(c, dec, pool, box, 11)
					for rep := 0; rep < 2; rep++ { // cold and warm plan
						got := pw.Measure(dom, true)
						if c.Rank() != 0 {
							continue
						}
						if len(got.K) != len(want.K) {
							t.Errorf("rep %d: %d bins want %d", rep, len(got.K), len(want.K))
							return
						}
						if got.ShotNoise != want.ShotNoise {
							t.Errorf("rep %d: shot %g want %g", rep, got.ShotNoise, want.ShotNoise)
						}
						for i := range want.K {
							if got.NModes[i] != want.NModes[i] {
								t.Errorf("rep %d bin %d: %d modes want %d", rep, i, got.NModes[i], want.NModes[i])
							}
							if relErr(got.K[i], want.K[i]) > 1e-12 {
								t.Errorf("rep %d bin %d: k=%.17g want %.17g", rep, i, got.K[i], want.K[i])
							}
							if relErr(got.P[i], want.P[i]) > 1e-12 {
								t.Errorf("rep %d bin %d: P=%.17g want %.17g", rep, i, got.P[i], want.P[i])
							}
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// newPower builds the estimator as a simulation does: on a Poisson solver
// that shares the binning pool.
func newPower(c *mpi.Comm, dec *grid.Decomp, pool *par.Pool, box float64, bins int) *Power {
	return NewPower(spectral.NewPoisson(c, dec, spectral.Options{Pool: pool}), pool, box, bins)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestPowerValidation pins the loud-failure contract of the estimator
// constructor.
func TestPowerValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) {
		ps := spectral.NewPoisson(c, grid.NewDecomp([3]int{16, 16, 16}, 1), spectral.Options{})
		for name, fn := range map[string]func(){
			"zero bins":     func() { NewPower(ps, nil, 100, 0) },
			"negative bins": func() { NewPower(ps, nil, 100, -3) },
			"zero box":      func() { NewPower(ps, nil, 0, 8) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				fn()
			}()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnalysisWarmAllocs pins the persistent-plan property on one rank:
// once warm, FindHalos and Measure allocate nothing.
func TestAnalysisWarmAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates inside the transform path")
	}
	fix := makeFOFFixture(3)
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp(fix.n, 1)
		d := domain.New(c, dec, 2)
		for i := range fix.x {
			d.Active.Append(fix.x[i], fix.y[i], fix.z[i], fix.vx[i], fix.vy[i], fix.vz[i], fix.ids[i])
		}
		d.Refresh()
		pl := NewPlan(d, nil)
		pl.FindHalos(0.7, 10, 1)
		pl.FindHalos(0.7, 10, 1)
		if avg := testing.AllocsPerRun(10, func() { pl.FindHalos(0.7, 10, 1) }); avg > 0 {
			t.Errorf("warm FindHalos allocates %.1f times per call", avg)
		}
		pw := newPower(c, dec, nil, 200, 8)
		pw.Measure(d, true)
		pw.Measure(d, true)
		if avg := testing.AllocsPerRun(10, func() { pw.Measure(d, true) }); avg > 0 {
			t.Errorf("warm Measure allocates %.1f times per call", avg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkLinkPartition builds a one-rank domain on a side³ grid holding the
// given actives, runs FindHalos with linking length b on the pool, and
// compares the plan's local partition (actives plus their self-image
// replicas, some at negative or ≥ side coordinates) with an all-pairs union
// under the same float32 predicate, each replica glued to its original by
// ID. Both roots are minimum indices, so equal roots mean equal partitions.
// Returns the number of linked pairs the all-pairs pass found.
func checkLinkPartition(t testing.TB, x, y, z []float32, side int, b float64, pool *par.Pool) int {
	links := 0
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp([3]int{side, side, side}, 1)
		d := domain.New(c, dec, 2)
		for i := range x {
			d.Active.Append(x[i], y[i], z[i], 0, 0, 0, uint64(i))
		}
		d.Refresh()
		pl := NewPlan(d, pool)
		pl.FindHalos(b, 1, 1)
		ids := append(append([]uint64(nil), d.Active.ID...), d.Passive.ID...)
		b2 := float32(b * b)
		want := bruteRoots(pl.n, func(i, j int) bool {
			if ids[i] == ids[j] {
				return true
			}
			dx := pl.x[i] - pl.x[j]
			dy := pl.y[i] - pl.y[j]
			dz := pl.z[i] - pl.z[j]
			if dx*dx+dy*dy+dz*dz <= b2 {
				links++
				return true
			}
			return false
		})
		for i, w := range want {
			if got := findAtomic(pl.parent, int32(i)); got != w {
				t.Errorf("particle %d at (%v, %v, %v): root %d, all-pairs root %d",
					i, pl.x[i], pl.y[i], pl.z[i], got, w)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return links
}

// edgePartner returns the coordinate farthest from c in direction dir (±1)
// that still lies within b of c under the float32 predicate, the other two
// axes being equal: a pair at exactly float32 distance b.
func edgePartner(c float32, b float64, dir float32) float32 {
	b2 := float32(b * b)
	in := func(v float32) bool { d := v - c; return d*d <= b2 }
	away, back := float32(math.Inf(1))*dir, float32(math.Inf(-1))*dir
	v := c + dir*float32(b)
	for !in(v) {
		v = math.Nextafter32(v, back)
	}
	for in(math.Nextafter32(v, away)) {
		v = math.Nextafter32(v, away)
	}
	return v
}

// fofSet accumulates a particle set inside a periodic side³ box.
type fofSet struct {
	x, y, z []float32
	side    float32
}

// add keeps a particle only when it lies in [0, side) on every axis.
func (s *fofSet) add(p [3]float32) {
	for _, v := range p {
		if !(v >= 0 && v < s.side) {
			return
		}
	}
	s.x = append(s.x, p[0])
	s.y = append(s.y, p[1])
	s.z = append(s.z, p[2])
}

func (s *fofSet) blob(rng *rand.Rand, c [3]float64, sigma float64, count int) {
	for i := 0; i < count; i++ {
		var p [3]float32
		for a := range p {
			p[a] = float32(c[a] + rng.NormFloat64()*sigma)
		}
		s.add(p)
	}
}

// edgePairs adds count pairs at exactly float32 distance b along one axis
// (every third pair along z, the rest along x and y, which straddle column
// edges), alternating with pairs one ulp beyond b, based at points drawn by
// base.
func (s *fofSet) edgePairs(rng *rand.Rand, b float64, count int, base func() [3]float32) {
	for k := 0; k < count; k++ {
		p := base()
		q := p
		axis := k % 3
		dir := float32(1)
		if rng.Intn(2) == 0 {
			dir = -1
		}
		q[axis] = edgePartner(p[axis], b, dir)
		if k%2 == 1 {
			q[axis] = math.Nextafter32(q[axis], float32(math.Inf(1))*dir)
		}
		s.add(p)
		s.add(q)
	}
}

// adversarialFOFSet puts exact-b pairs and z chains near coordinate 100
// (float32 ulp 7.6e-6), at the low faces and at the high faces (whose
// self-images carry negative coordinates), among blobs and a uniform
// background, in a 128³ box.
func adversarialFOFSet(rng *rand.Rand, b float64) *fofSet {
	s := &fofSet{side: 128}
	at := func(lo, width float64) func() [3]float32 {
		return func() [3]float32 {
			return [3]float32{
				float32(lo + rng.Float64()*width),
				float32(lo + rng.Float64()*width),
				float32(lo + rng.Float64()*width),
			}
		}
	}
	s.edgePairs(rng, b, 120, at(99, 2))
	s.edgePairs(rng, b, 60, at(127.95-b, 0.04))
	s.edgePairs(rng, b, 60, at(0, 0.05))
	s.edgePairs(rng, b, 60, at(0, 128))
	// Chains along z with every link at exactly float32 b.
	for k := 0; k < 6; k++ {
		p := at(98, 4)()
		for i := 0; i < 12; i++ {
			s.add(p)
			p[2] = edgePartner(p[2], b, 1)
		}
	}
	s.blob(rng, [3]float64{100, 100, 100}, 1.5*b, 150)
	s.blob(rng, [3]float64{127.9, 127.9, 127.9}, b, 80)
	s.blob(rng, [3]float64{0.05, 127.95, 64}, b, 80)
	for i := 0; i < 800; i++ {
		s.add(at(0, 128)())
	}
	return s
}

// columnEdgeFOFSet puts pairs on either side of the plan's column edges in
// x (and, for half of them, in y), a float32 ulp apart there and exactly b
// apart under the float32 predicate in z, above or below, near z = 100,
// and pairs exactly b apart in x starting at a column edge. The
// anchor at (10, 10) is the minimum x and y, so it fixes the column edges,
// and nothing lies within the overload width of a face, so there are no
// replicas to move them.
func columnEdgeFOFSet(rng *rand.Rand, b float64) *fofSet {
	s := &fofSet{side: 128}
	s.add([3]float32{10, 10, 100})
	straddle := func(k int) (below, above float32) {
		edge := 10 + float64(k)*columnSide(b)
		above = float32(edge)
		for float64(above) < edge {
			above = math.Nextafter32(above, float32(math.Inf(1)))
		}
		return math.Nextafter32(above, float32(math.Inf(-1))), above
	}
	b2 := float32(b * b)
	for k := 0; k < 400; k++ {
		x1, x2 := straddle(1 + rng.Intn(int(40/b)))
		y1 := float32(12 + rng.Float64()*36)
		y2 := y1
		if k%2 == 1 {
			y2, y1 = straddle(1 + rng.Intn(int(36/b)))
		}
		z1 := float32(99 + 2*rng.Float64())
		dir := float32(1)
		if rng.Intn(2) == 0 {
			dir = -1
		}
		dx, dy := x1-x2, y1-y2
		in := func(z2 float32) bool { dz := z1 - z2; return dx*dx+dy*dy+dz*dz <= b2 }
		z2 := z1 + dir*float32(b)
		for !in(z2) {
			z2 = math.Nextafter32(z2, z1)
		}
		for in(math.Nextafter32(z2, z2+dir)) {
			z2 = math.Nextafter32(z2, z2+dir)
		}
		s.add([3]float32{x1, y1, z1})
		s.add([3]float32{x2, y2, z2})
	}
	// Pairs exactly b apart along x with one end at a column edge, up to
	// x = 120, where float32 column coordinates would err by ~3e-5 columns.
	for k := 0; k < 400; k++ {
		below, above := straddle(1 + rng.Intn(int(110/b)))
		x1, dir := below, float32(-1)
		if k%2 == 1 {
			x1, dir = above, 1
		}
		y := float32(12 + rng.Float64()*36)
		z := float32(99 + 2*rng.Float64())
		s.add([3]float32{x1, y, z})
		s.add([3]float32{edgePartner(x1, b, dir), y, z})
	}
	return s
}

// TestFOFColumnsMatchBruteForce pins the column sweep's pair set: the plan's
// local partition must equal an all-pairs union, serial and pooled, on
// random clustered particles and on adversarial sets: pairs at exactly
// float32 b along z, pairs straddling x/y column edges, coordinates near
// 100, and negative passive coordinates.
func TestFOFColumnsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := &fofSet{side: 32}
	for h := 0; h < 12; h++ {
		random.blob(rng, [3]float64{rng.Float64() * 32, rng.Float64() * 32, rng.Float64() * 32}, 0.5, 60)
	}
	for i := 0; i < 600; i++ {
		random.add([3]float32{rng.Float32() * 32, rng.Float32() * 32, rng.Float32() * 32})
	}
	cases := []struct {
		name string
		set  *fofSet
		b    float64
	}{
		{"random", random, 0.7},
		{"adversarial/b=0.2", adversarialFOFSet(rng, 0.2), 0.2},
		{"adversarial/b=1.3", adversarialFOFSet(rng, 1.3), 1.3},
		{"column-edges", columnEdgeFOFSet(rng, 0.2), 0.2},
	}
	for _, tc := range cases {
		for _, threads := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%s/pool=%d", tc.name, threads), func(t *testing.T) {
				var pool *par.Pool
				if threads > 0 {
					pool = par.NewPool(threads)
				}
				s := tc.set
				if links := checkLinkPartition(t, s.x, s.y, s.z, int(s.side), tc.b, pool); links < 100 {
					t.Errorf("weak set: only %d linked pairs", links)
				}
			})
		}
	}
}

// FuzzFOFLinkMatchesBruteForce checks the column sweep against the
// all-pairs union on clustered sets with exact-b pairs, over the seed, the
// particle count, the linking length and the box side.
func FuzzFOFLinkMatchesBruteForce(f *testing.F) {
	f.Add(int64(1), uint16(200), 0.2, 16.0)
	f.Add(int64(7), uint16(60), 0.7, 8.0)
	f.Add(int64(42), uint16(299), 1.45, 31.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, b, extent float64) {
		if math.IsNaN(b) || math.IsInf(b, 0) || math.IsNaN(extent) || math.IsInf(extent, 0) {
			t.Skip()
		}
		b = 0.05 + math.Mod(math.Abs(b), 1.45)          // ≤ 1.5, inside the overload width 2
		side := 5 + int(math.Mod(math.Abs(extent), 28)) // the overload width 2 needs side > 4
		rng := rand.New(rand.NewSource(seed))
		s := &fofSet{side: float32(side)}
		np := 1 + int(n)%300
		for len(s.x) < np {
			c := [3]float64{rng.Float64() * float64(side), rng.Float64() * float64(side), rng.Float64() * float64(side)}
			s.blob(rng, c, b, 1+rng.Intn(20))
			s.edgePairs(rng, b, 2, func() [3]float32 {
				return [3]float32{float32(c[0]), float32(c[1]), float32(c[2])}
			})
		}
		var pool *par.Pool
		if seed%2 != 0 {
			pool = par.NewPool(2)
		}
		checkLinkPartition(t, s.x, s.y, s.z, side, b, pool)
	})
}

// TestFOFScratchLinear pins the mesh scratch to O(n + columns): 1 k
// particles in a 64³ box at b = 0.2, where a 3-D linking-length mesh needs
// tens of millions of cells.
func TestFOFScratchLinear(t *testing.T) {
	const (
		np   = 1000
		side = 64
		b    = 0.2
	)
	rng := rand.New(rand.NewSource(9))
	err := mpi.Run(1, func(c *mpi.Comm) {
		dec := grid.NewDecomp([3]int{side, side, side}, 1)
		d := domain.New(c, dec, 2)
		for i := 0; i < np; i++ {
			d.Active.Append(rng.Float32()*side, rng.Float32()*side, rng.Float32()*side, 0, 0, 0, uint64(i))
		}
		d.Refresh()
		pl := NewPlan(d, nil)
		pl.FindHalos(b, 1, 1)
		n, ncol := pl.n, pl.cdims[0]*pl.cdims[1]
		if got := cap(pl.keys) + cap(pl.colStart); got > n+ncol+1 {
			t.Errorf("mesh scratch %d entries, want ≤ n + columns + 1 = %d", got, n+ncol+1)
		}
		for name, c := range map[string]int{"colOf": cap(pl.colOf), "xs": cap(pl.xs), "ys": cap(pl.ys), "zs": cap(pl.zs)} {
			if c > n {
				t.Errorf("%s holds %d entries for %d particles", name, c, n)
			}
		}
		cells := pl.cdims[0] * pl.cdims[1] * pl.cdims[0]
		t.Logf("n=%d columns=%d; a 3-D mesh of the same side would hold ~%d cells", n, ncol, cells)
	})
	if err != nil {
		t.Fatal(err)
	}
}
