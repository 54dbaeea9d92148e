package spectral

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/grid"
	"hacc/internal/mpi"
)

func TestFilterProperties(t *testing.T) {
	if f := Filter(0, DefaultSigma, DefaultNs); math.Abs(f-1) > 1e-12 {
		t.Errorf("Filter(0)=%g want 1", f)
	}
	prev := 1.0
	for k := 0.1; k < math.Pi; k += 0.1 {
		f := Filter(k, DefaultSigma, DefaultNs)
		if f <= 0 || f >= prev {
			t.Errorf("Filter not strictly decreasing at k=%g: %g (prev %g)", k, f, prev)
		}
		prev = f
	}
	if f := Filter(math.Pi, DefaultSigma, DefaultNs); f > 0.1 {
		t.Errorf("Filter(π)=%g, expected strong suppression", f)
	}
}

func TestInfluence6(t *testing.T) {
	// λ → −k² as k → 0, to sixth order.
	for _, k := range []float64{0.01, 0.05, 0.1} {
		l := Influence6(k, 0, 0)
		if math.Abs(l+k*k) > 1e-4*k*k {
			t.Errorf("Influence6(%g)=%g want ≈%g", k, l, -k*k)
		}
	}
	// Negative definite away from DC.
	for _, k := range [][3]float64{{1, 0, 0}, {2, 2, 1}, {math.Pi, math.Pi, math.Pi}, {0.3, -2.9, 1.2}} {
		if l := Influence6(k[0], k[1], k[2]); l >= 0 {
			t.Errorf("Influence6(%v)=%g not negative", k, l)
		}
	}
}

func TestGradSL4(t *testing.T) {
	for _, k := range []float64{0.01, 0.05, 0.1, 0.2} {
		d := GradSL4(k)
		if math.Abs(d-k) > k*k*k*k*1.0 {
			t.Errorf("GradSL4(%g)=%g want ≈%g", k, d, k)
		}
	}
	if d := GradSL4(math.Pi); math.Abs(d) > 1e-12 {
		t.Errorf("GradSL4(π)=%g want 0", d)
	}
	// Odd function.
	if GradSL4(0.7)+GradSL4(-0.7) != 0 {
		t.Error("GradSL4 not odd")
	}
}

func TestKMode(t *testing.T) {
	n := 8
	wants := []float64{0, 1, 2, 3, 4, -3, -2, -1}
	for m, w := range wants {
		if got := KMode(m, n); math.Abs(got-2*math.Pi*w/8) > 1e-12 {
			t.Errorf("KMode(%d,8)=%g want %g", m, got, 2*math.Pi*w/8)
		}
	}
}

// pmAccel runs the full PM pipeline for the given particles on p ranks and
// returns the interpolated accelerations (one [3]float64 per particle).
func pmAccel(t *testing.T, n [3]int, p int, opts Options, px, py, pz []float32) [][3]float64 {
	t.Helper()
	np := len(px)
	res := make([][3]float64, np)
	err := mpi.Run(p, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, p)
		b := dec.Box(c.Rank())
		rho := grid.NewField(n, b, 1)
		ex := grid.NewExchanger(c, dec, rho)
		ps := NewPoisson(c, dec, opts)
		// Deposit the particles owned by this rank.
		var xs, ys, zs []float32
		var ids []int
		for i := 0; i < np; i++ {
			if dec.RankOf(float64(px[i]), float64(py[i]), float64(pz[i])) == c.Rank() {
				xs = append(xs, px[i])
				ys = append(ys, py[i])
				zs = append(zs, pz[i])
				ids = append(ids, i)
			}
		}
		grid.DepositCIC(rho, xs, ys, zs, 1)
		ex.Accumulate(rho)
		var acc [3]*grid.Field
		var exa [3]*grid.Exchanger
		for d := 0; d < 3; d++ {
			acc[d] = grid.NewField(n, b, 1)
			exa[d] = grid.NewExchanger(c, dec, acc[d])
		}
		ps.Solve(rho, &acc)
		out := make([]float32, len(xs))
		local := make([]float64, 3*np)
		for d := 0; d < 3; d++ {
			exa[d].Fill(acc[d])
			grid.InterpCIC(acc[d], xs, ys, zs, out, 1)
			for j, id := range ids {
				local[3*id+d] = float64(out[j])
			}
		}
		tot := mpi.AllReduce(c, local, mpi.SumF64)
		if c.Rank() == 0 {
			for i := 0; i < np; i++ {
				res[i] = [3]float64{tot[3*i], tot[3*i+1], tot[3*i+2]}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPointSourceForceLaw(t *testing.T) {
	// A unit point mass at a grid node: the PM acceleration at distance r
	// beyond the filter scale must approach g/r², g = (3/2)Ωm/4π.
	const omegaM = 0.3
	n := [3]int{64, 64, 64}
	g := 1.5 * omegaM / (4 * math.Pi)
	src := [3]float32{32, 32, 32}
	// Beyond ~L/5 the periodic images contribute several percent (real
	// physics, handled by the PM sum itself), so probe radii stay below.
	radii := []float64{6, 8, 12}
	px := []float32{src[0]}
	py := []float32{src[1]}
	pz := []float32{src[2]}
	for _, r := range radii {
		px = append(px, src[0]+float32(r))
		py = append(py, src[1])
		pz = append(pz, src[2])
	}
	// Only the source deposits; test points are massless probes. Emulate by
	// depositing just the source and interpolating at the probes: run with
	// the source as the single particle, probes via a second call.
	acc := pmProbe(t, n, 1, Options{OmegaM: omegaM, Filter: true}, src, px, py, pz)
	for i, r := range radii {
		ax := acc[i+1][0]
		want := -g / (r * r) // attraction toward the source (−x direction)
		if math.Abs(ax-want) > 0.04*math.Abs(want) {
			t.Errorf("r=%g: ax=%g want %g (err %.2f%%)", r, ax, want,
				100*math.Abs(ax-want)/math.Abs(want))
		}
		// Transverse components negligible.
		if math.Abs(acc[i+1][1]) > 0.02*math.Abs(want) || math.Abs(acc[i+1][2]) > 0.02*math.Abs(want) {
			t.Errorf("r=%g: transverse force %g,%g", r, acc[i+1][1], acc[i+1][2])
		}
	}
}

// pmProbe deposits a single unit mass at src and returns accelerations
// interpolated at the probe positions.
func pmProbe(t *testing.T, n [3]int, p int, opts Options, src [3]float32, px, py, pz []float32) [][3]float64 {
	t.Helper()
	np := len(px)
	res := make([][3]float64, np)
	err := mpi.Run(p, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, p)
		b := dec.Box(c.Rank())
		rho := grid.NewField(n, b, 1)
		ex := grid.NewExchanger(c, dec, rho)
		ps := NewPoisson(c, dec, opts)
		if dec.RankOf(float64(src[0]), float64(src[1]), float64(src[2])) == c.Rank() {
			grid.DepositCIC(rho, []float32{src[0]}, []float32{src[1]}, []float32{src[2]}, 1)
		}
		ex.Accumulate(rho)
		var acc [3]*grid.Field
		for d := 0; d < 3; d++ {
			acc[d] = grid.NewField(n, b, 1)
		}
		ps.Solve(rho, &acc)
		local := make([]float64, 3*np)
		out := make([]float32, 1)
		for i := 0; i < np; i++ {
			if dec.RankOf(float64(px[i]), float64(py[i]), float64(pz[i])) != c.Rank() {
				continue
			}
			for d := 0; d < 3; d++ {
				ge := grid.NewExchanger(c, dec, acc[d])
				_ = ge
				grid.InterpCIC(acc[d], px[i:i+1], py[i:i+1], pz[i:i+1], out, 1)
				local[3*i+d] = float64(out[0])
			}
		}
		tot := mpi.AllReduce(c, local, mpi.SumF64)
		if c.Rank() == 0 {
			for i := 0; i < np; i++ {
				res[i] = [3]float64{tot[3*i], tot[3*i+1], tot[3*i+2]}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFilterReducesAnisotropy(t *testing.T) {
	// Paper §II: the spectral filter cuts CIC anisotropy noise by over an
	// order of magnitude "without requiring complex and inflexible
	// higher-order spatial particle deposition methods". The baseline is
	// the conventional sharpened PM (CIC window deconvolved); measure the
	// direction scatter of the force magnitude at r≈3.2 for both.
	n := [3]int{32, 32, 32}
	src := [3]float32{16.37, 15.81, 16.02} // off-node source: worst case
	rng := rand.New(rand.NewSource(11))
	const nd = 48
	r := 3.2
	px := make([]float32, nd)
	py := make([]float32, nd)
	pz := make([]float32, nd)
	for i := 0; i < nd; i++ {
		// Random direction.
		for {
			x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			s := math.Sqrt(x*x + y*y + z*z)
			if s < 1e-6 {
				continue
			}
			px[i] = src[0] + float32(r*x/s)
			py[i] = src[1] + float32(r*y/s)
			pz[i] = src[2] + float32(r*z/s)
			break
		}
	}
	scatter := func(opts Options) float64 {
		acc := pmProbe(t, n, 1, opts, src, px, py, pz)
		mags := make([]float64, nd)
		var mean float64
		for i, a := range acc {
			mags[i] = math.Sqrt(a[0]*a[0] + a[1]*a[1] + a[2]*a[2])
			mean += mags[i]
		}
		mean /= nd
		var vr float64
		for _, m := range mags {
			vr += (m - mean) * (m - mean)
		}
		return math.Sqrt(vr/nd) / mean
	}
	sf := scatter(Options{OmegaM: 0.3, Filter: true})
	su := scatter(Options{OmegaM: 0.3, Deconvolve: true})
	t.Logf("anisotropy scatter: filtered %.4f deconvolved %.4f (ratio %.1f)", sf, su, su/sf)
	if sf >= su/5 {
		t.Errorf("filter should cut anisotropy scatter ≥5× vs sharpened PM: filtered %g deconvolved %g", sf, su)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	// Equal-mass pair: PM forces must be equal and opposite (CIC deposit
	// and interpolation are adjoint, the gradient kernel is odd).
	n := [3]int{32, 32, 32}
	px := []float32{10.3, 21.8}
	py := []float32{16.1, 15.2}
	pz := []float32{14.9, 17.4}
	acc := pmAccel(t, n, 1, Options{OmegaM: 0.3, Filter: true}, px, py, pz)
	for d := 0; d < 3; d++ {
		if math.Abs(acc[0][d]+acc[1][d]) > 1e-6*(math.Abs(acc[0][d])+1e-12) {
			t.Errorf("momentum violation in component %d: %g vs %g", d, acc[0][d], acc[1][d])
		}
	}
}

func TestUniformLatticeZeroForce(t *testing.T) {
	// A uniform particle lattice exerts no net PM force on its members.
	n := [3]int{16, 16, 16}
	var px, py, pz []float32
	for x := 0; x < 16; x += 2 {
		for y := 0; y < 16; y += 2 {
			for z := 0; z < 16; z += 2 {
				px = append(px, float32(x))
				py = append(py, float32(y))
				pz = append(pz, float32(z))
			}
		}
	}
	acc := pmAccel(t, n, 1, Options{OmegaM: 0.3, Filter: true}, px, py, pz)
	for i, a := range acc {
		for d := 0; d < 3; d++ {
			if math.Abs(a[d]) > 1e-10 {
				t.Fatalf("particle %d: lattice force %v", i, a)
			}
		}
	}
}

func TestParallelMatchesSerialSolve(t *testing.T) {
	// The same particle set must produce identical accelerations on 1 rank,
	// 4 pencil ranks, and 4 slab ranks.
	n := [3]int{16, 16, 16}
	rng := rand.New(rand.NewSource(3))
	const np = 40
	px := make([]float32, np)
	py := make([]float32, np)
	pz := make([]float32, np)
	for i := 0; i < np; i++ {
		px[i] = float32(rng.Float64() * 16)
		py[i] = float32(rng.Float64() * 16)
		pz[i] = float32(rng.Float64() * 16)
	}
	ref := pmAccel(t, n, 1, Options{OmegaM: 0.3, Filter: true}, px, py, pz)
	par := pmAccel(t, n, 4, Options{OmegaM: 0.3, Filter: true}, px, py, pz)
	slab := pmAccel(t, n, 4, Options{OmegaM: 0.3, Filter: true, Slab: true}, px, py, pz)
	var scale float64
	for _, a := range ref {
		for d := 0; d < 3; d++ {
			scale = math.Max(scale, math.Abs(a[d]))
		}
	}
	for i := 0; i < np; i++ {
		for d := 0; d < 3; d++ {
			if math.Abs(ref[i][d]-par[i][d]) > 1e-6*scale {
				t.Errorf("pencil mismatch particle %d comp %d: %g vs %g", i, d, ref[i][d], par[i][d])
			}
			if math.Abs(ref[i][d]-slab[i][d]) > 1e-6*scale {
				t.Errorf("slab mismatch particle %d comp %d: %g vs %g", i, d, ref[i][d], slab[i][d])
			}
		}
	}
}

// TestSpectrumSharesSolvePlan pins the one-plan contract the in-situ P(k)
// estimator relies on: Spectrum does not depend on the field's ghost width,
// and a Spectrum between two solves leaves the second Solve bitwise
// unchanged.
func TestSpectrumSharesSolvePlan(t *testing.T) {
	n := [3]int{16, 16, 16}
	err := mpi.Run(2, func(c *mpi.Comm) {
		dec := grid.NewDecomp(n, 2)
		b := dec.Box(c.Rank())
		rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
		random := func(ghost int) *grid.Field {
			f := grid.NewField(n, b, ghost)
			v := make([]float64, b.Count())
			for i := range v {
				v[i] = rng.Float64()
			}
			f.SetOwned(v)
			return f
		}
		ps := NewPoisson(c, dec, Options{OmegaM: 0.3, Filter: true})
		rho := random(3)
		thin := grid.NewField(n, b, 1)
		thin.SetOwned(rho.Owned())
		want := append([]complex128(nil), ps.Spectrum(thin)...)
		for i, v := range ps.Spectrum(rho) {
			if v != want[i] {
				t.Errorf("rank %d mode %d: ghost width 3 gives %v, width 1 %v", c.Rank(), i, v, want[i])
				return
			}
		}
		solve := func() [3][]float64 {
			var acc [3]*grid.Field
			var out [3][]float64
			for d := range acc {
				acc[d] = grid.NewField(n, b, 1)
			}
			ps.Solve(rho, &acc)
			for d := range acc {
				out[d] = acc[d].Owned()
			}
			return out
		}
		first := solve()
		ps.Spectrum(random(1))
		second := solve()
		for d := range first {
			for i := range first[d] {
				if first[d][i] != second[d][i] {
					t.Errorf("rank %d axis %d cell %d: Solve moved after Spectrum", c.Rank(), d, i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
