package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/mpi"
)

func TestPowerSpectrumRecoversInput(t *testing.T) {
	// Generate fixed-amplitude ICs (no realization scatter) and check the
	// measured P(k) against D²(a)·P_lin(k). Residuals come only from CIC,
	// binning, and the Zel'dovich displacement itself (small at a=0.05).
	const (
		ng  = 32
		np  = 32
		box = 500.0
		a0  = 0.05
	)
	params := cosmology.Default()
	lp := cosmology.NewLinearPower(params, cosmology.EisensteinHuNoWiggle(params))
	err := mpi.Run(4, func(c *mpi.Comm) {
		dec := grid.NewDecomp([3]int{ng, ng, ng}, 4)
		dom := domain.New(c, dec, 2)
		o := ic.Options{Np: np, BoxMpc: box, AInit: a0, Seed: 11, Fixed: true}
		if err := ic.Generate(c, dec, lp, o, dom); err != nil {
			t.Error(err)
			return
		}
		ps := newPower(c, dec, nil, box, 12).Measure(dom, false)
		if c.Rank() != 0 {
			return
		}
		d := lp.Gfac.D(a0)
		checked := 0
		for i, k := range ps.K {
			if k > 0.7*math.Pi*ng/box { // avoid the aliased Nyquist corner
				continue
			}
			want := d * d * lp.P(k)
			got := ps.P[i]
			if math.Abs(got-want) > 0.15*want {
				t.Errorf("k=%.3f: P=%.4g want %.4g (%.1f%%)", k, got, want, 100*(got-want)/want)
			}
			checked++
		}
		if checked < 5 {
			t.Errorf("only %d usable bins", checked)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFOFTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x, y, z []float32
	// Cluster A: 50 particles in a 0.3-cell ball at (5,5,5).
	for i := 0; i < 50; i++ {
		x = append(x, 5+rng.Float32()*0.3)
		y = append(y, 5+rng.Float32()*0.3)
		z = append(z, 5+rng.Float32()*0.3)
	}
	// Cluster B: 30 particles at (15,15,15).
	for i := 0; i < 30; i++ {
		x = append(x, 15+rng.Float32()*0.3)
		y = append(y, 15+rng.Float32()*0.3)
		z = append(z, 15+rng.Float32()*0.3)
	}
	// 10 isolated singles.
	for i := 0; i < 10; i++ {
		x = append(x, float32(20+3*i))
		y = append(y, 25)
		z = append(z, 25)
	}
	halos := FOF(x, y, z, 0.5, 5)
	if len(halos) != 2 {
		t.Fatalf("found %d halos want 2", len(halos))
	}
	if halos[0].N != 50 || halos[1].N != 30 {
		t.Errorf("halo sizes %d,%d want 50,30", halos[0].N, halos[1].N)
	}
	if math.Abs(halos[0].X-5.15) > 0.1 || math.Abs(halos[1].X-15.15) > 0.1 {
		t.Errorf("halo centers %g,%g", halos[0].X, halos[1].X)
	}
}

func TestFOFLinkingLength(t *testing.T) {
	// A chain spaced 0.9b must link end to end; spaced 1.1b must not link.
	mk := func(spacing float32) []Halo {
		var x, y, z []float32
		for i := 0; i < 20; i++ {
			x = append(x, float32(i)*spacing)
			y = append(y, 0)
			z = append(z, 0)
		}
		return FOF(x, y, z, 1.0, 3)
	}
	if h := mk(0.9); len(h) != 1 || h[0].N != 20 {
		t.Errorf("0.9b chain: %d halos", len(h))
	}
	if h := mk(1.1); len(h) != 0 {
		t.Errorf("1.1b chain linked: %d halos", len(h))
	}
}

func TestFOFMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(120)
		b := 0.5 + rng.Float64()
		x := make([]float32, n)
		y := make([]float32, n)
		z := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32() * 12
			y[i] = rng.Float32() * 12
			z[i] = rng.Float32() * 12
		}
		// Brute-force connected components.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(i int) int {
			for parent[i] != i {
				parent[i] = parent[parent[i]]
				i = parent[i]
			}
			return i
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := float64(x[i] - x[j])
				dy := float64(y[i] - y[j])
				dz := float64(z[i] - z[j])
				if dx*dx+dy*dy+dz*dz <= b*b {
					parent[find(i)] = find(j)
				}
			}
		}
		sizes := map[int]int{}
		for i := 0; i < n; i++ {
			sizes[find(i)]++
		}
		wantCounts := map[int]int{} // size -> number of groups ≥2
		for _, s := range sizes {
			if s >= 2 {
				wantCounts[s]++
			}
		}
		halos := FOF(x, y, z, b, 2)
		gotCounts := map[int]int{}
		for _, h := range halos {
			gotCounts[h.N]++
		}
		if len(gotCounts) != len(wantCounts) {
			return false
		}
		for s, c := range wantCounts {
			if gotCounts[s] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFindHalosCrossBoundaryOwnership(t *testing.T) {
	// A cluster straddling rank boundaries must be found complete and
	// owned by exactly one rank (the overloading trick, §V).
	n := [3]int{16, 16, 16}
	rng := rand.New(rand.NewSource(2))
	// Cluster centered on the corner shared by all 8 ranks.
	cx, cy, cz := 8.0, 8.0, 8.0
	var hx, hy, hz []float32
	for i := 0; i < 80; i++ {
		hx = append(hx, float32(cx+rng.NormFloat64()*0.3))
		hy = append(hy, float32(cy+rng.NormFloat64()*0.3))
		hz = append(hz, float32(cz+rng.NormFloat64()*0.3))
	}
	err := mpi.Run(8, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, 8)
		d := domain.New(c, dec, 3)
		for i := range hx {
			if dec.RankOf(float64(hx[i]), float64(hy[i]), float64(hz[i])) == c.Rank() {
				d.Active.Append(hx[i], hy[i], hz[i], 0, 0, 0, uint64(i))
			}
		}
		d.Refresh()
		halos := FindHalos(d, dec, 0.7, 10, 1)
		counts := mpi.AllReduce(c, []int{len(halos)}, mpi.SumInt)
		if counts[0] != 1 {
			t.Errorf("cluster found %d times across ranks", counts[0])
			return
		}
		for _, h := range halos {
			if h.N < 75 {
				t.Errorf("owned halo truncated: %d of 80 members", h.N)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFindSubhalosTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x, y, z []float32
	var members []int32
	// Dense main blob (300) and satellite (100) 2 cells apart, connected by
	// a thin bridge so FOF sees one halo.
	for i := 0; i < 300; i++ {
		x = append(x, float32(10+rng.NormFloat64()*0.25))
		y = append(y, float32(10+rng.NormFloat64()*0.25))
		z = append(z, float32(10+rng.NormFloat64()*0.25))
	}
	for i := 0; i < 100; i++ {
		x = append(x, float32(12+rng.NormFloat64()*0.15))
		y = append(y, float32(10+rng.NormFloat64()*0.15))
		z = append(z, float32(10+rng.NormFloat64()*0.15))
	}
	for i := 0; i < 12; i++ {
		x = append(x, float32(10.3+float64(i)*0.15))
		y = append(y, 10)
		z = append(z, 10)
	}
	for i := range x {
		members = append(members, int32(i))
	}
	subs := FindSubhalos(x, y, z, members, SubhaloOptions{LinkRadius: 0.25, MinN: 20})
	if len(subs) < 2 {
		t.Fatalf("found %d subhalos want ≥2", len(subs))
	}
	// The two dominant basins should be near the two blob centers.
	foundMain, foundSat := false, false
	for _, s := range subs[:2] {
		if math.Abs(s.X-10) < 0.5 {
			foundMain = true
		}
		if math.Abs(s.X-12) < 0.5 {
			foundSat = true
		}
	}
	if !foundMain || !foundSat {
		t.Errorf("subhalo centers: %+v", subs[:2])
	}
}

func TestDensityStats(t *testing.T) {
	owned := make([]float64, 64)
	for i := range owned {
		owned[i] = 1
	}
	s := MeasureDensityStats(owned)
	if s.Variance != 0 || s.Max != 0 || s.Min != 0 || s.NegFrac != 0 {
		t.Errorf("uniform stats %+v", s)
	}
	owned[5] = 33
	owned[6] = 0 // compensating void
	s = MeasureDensityStats(owned)
	if math.Abs(s.Max-32) > 1e-12 || math.Abs(s.Min+1) > 1e-12 {
		t.Errorf("spike stats %+v", s)
	}
	if s.NegFrac <= 0 {
		t.Error("expected a negative cell")
	}
}

func TestMassFunctionBins(t *testing.T) {
	halos := []Halo{{Mass: 1e13}, {Mass: 1.2e13}, {Mass: 1e14}, {Mass: 9e15}}
	err := mpi.Run(2, func(c *mpi.Comm) {
		var mine []Halo
		for i, h := range halos {
			if i%2 == c.Rank() {
				mine = append(mine, h)
			}
		}
		m, dn := MassFunctionBins(c, mine, 1e6, 1e12, 1e16, 8)
		if len(m) != 8 {
			t.Errorf("bins %d", len(m))
			return
		}
		var total float64
		dln := (math.Log(1e16) - math.Log(1e12)) / 8
		for _, v := range dn {
			total += v * dln * 1e6
		}
		if math.Abs(total-4) > 1e-9 {
			t.Errorf("binned halo total %g want 4", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMassFunctionBinsEdges pins the half-open range [mMin, mMax): a mass
// a fraction of a bin below mMin must not truncate into bin 0.
func TestMassFunctionBinsEdges(t *testing.T) {
	const mMin, mMax, nbins = 1e12, 1e16, 8
	dln := (math.Log(mMax) - math.Log(mMin)) / nbins
	cases := []struct {
		name string
		mass float64
		bin  int // -1: dropped
	}{
		{"below mMin", 0.9 * mMin, -1},
		{"at mMin", mMin, 0},
		{"at mMax", mMax, -1},
		{"above mMax", 1.1 * mMax, -1},
	}
	err := mpi.Run(1, func(c *mpi.Comm) {
		for _, tc := range cases {
			_, dn := MassFunctionBins(c, []Halo{{Mass: tc.mass}}, 1, mMin, mMax, nbins)
			for b, v := range dn {
				want := 0.0
				if b == tc.bin {
					want = 1 / dln
				}
				if v != want {
					t.Errorf("%s: dn[%d] = %g, want %g", tc.name, b, v, want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
