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
					pw := NewPower(c, dec, pool, box, 11)
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
		dec := grid.NewDecomp([3]int{16, 16, 16}, 1)
		for name, fn := range map[string]func(){
			"zero bins":     func() { NewPower(c, dec, nil, 100, 0) },
			"negative bins": func() { NewPower(c, dec, nil, 100, -3) },
			"zero box":      func() { NewPower(c, dec, nil, 0, 8) },
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
		pw := NewPower(c, dec, nil, 200, 8)
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
