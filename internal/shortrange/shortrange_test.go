package shortrange

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hacc/internal/tree"
)

func TestRsqrtAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := float32(math.Exp(rng.Float64()*20 - 10)) // 4.5e-5 .. 2.2e4
		got := float64(rsqrt(x))
		want := 1 / math.Sqrt(float64(x))
		if math.Abs(got-want) > 2e-6*want {
			t.Fatalf("rsqrt(%g)=%g want %g", x, got, want)
		}
	}
}

func TestFSRCutoffAndLimits(t *testing.T) {
	poly := [6]float64{0.1, 0.01, 0, 0, 0, 0}
	k := NewKernel(poly, 3.0, 1e-6, 1)
	if f := k.FSR(9.0); f != 0 {
		t.Errorf("FSR at cutoff: %g", f)
	}
	if f := k.FSR(10); f != 0 {
		t.Errorf("FSR beyond cutoff: %g", f)
	}
	// Near zero separation: dominated by (s+ε)^{-3/2}.
	got := float64(k.FSR(1e-6))
	want := 1/math.Pow(2e-6, 1.5) - 0.1
	if math.Abs(got-want) > 1e-2*want {
		t.Errorf("FSR(0+)=%g want %g", got, want)
	}
}

func TestApplyMatchesScalarFSR(t *testing.T) {
	// The unrolled batch kernel must agree with the scalar reference.
	rng := rand.New(rand.NewSource(2))
	res, err := FitGridForce(FitOptions{GridN: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(res.Poly, res.RCut, 1e-4, 0.25)
	for trial := 0; trial < 20; trial++ {
		nl := 1 + rng.Intn(7)
		nn := rng.Intn(33)
		lx := make([]float32, nl)
		ly := make([]float32, nl)
		lz := make([]float32, nl)
		nx := make([]float32, nn)
		nyv := make([]float32, nn)
		nz := make([]float32, nn)
		for i := range lx {
			lx[i] = rng.Float32() * 8
			ly[i] = rng.Float32() * 8
			lz[i] = rng.Float32() * 8
		}
		for j := range nx {
			nx[j] = rng.Float32() * 8
			nyv[j] = rng.Float32() * 8
			nz[j] = rng.Float32() * 8
		}
		ax := make([]float32, nl)
		ay := make([]float32, nl)
		az := make([]float32, nl)
		n := k.Apply(lx, ly, lz, nx, nyv, nz, ax, ay, az)
		if n != int64(nl)*int64(nn) {
			t.Fatalf("interaction count %d want %d", n, nl*nn)
		}
		for i := 0; i < nl; i++ {
			var sx, sy, sz float64
			for j := 0; j < nn; j++ {
				dx := nx[j] - lx[i]
				dy := nyv[j] - ly[i]
				dz := nz[j] - lz[i]
				s := dx*dx + dy*dy + dz*dz
				f := float64(k.FSR(s))
				sx += float64(dx) * f
				sy += float64(dy) * f
				sz += float64(dz) * f
			}
			var scale float64 = 1e-5 * (math.Abs(sx) + math.Abs(sy) + math.Abs(sz) + 1)
			if math.Abs(float64(ax[i])-k.GM*sx) > scale ||
				math.Abs(float64(ay[i])-k.GM*sy) > scale ||
				math.Abs(float64(az[i])-k.GM*sz) > scale {
				t.Fatalf("trial %d particle %d: batch (%g,%g,%g) scalar (%g,%g,%g)",
					trial, i, ax[i], ay[i], az[i], k.GM*sx, k.GM*sy, k.GM*sz)
			}
		}
	}
}

func TestFitGridForceQuality(t *testing.T) {
	res, err := FitGridForce(FitOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("poly5 = %v, rms residual (Newton-relative) = %.4f", res.Poly, res.RMSErr)
	if res.RMSErr > 0.05 {
		t.Errorf("grid-force fit residual %g too large", res.RMSErr)
	}
	// At the matching radius the grid force equals the Newtonian force, so
	// f_SR(rcut²) ≈ 0: poly(rcut²) ≈ (rcut²)^{-3/2}.
	s := res.RCut * res.RCut
	poly := res.Poly[0] + s*(res.Poly[1]+s*(res.Poly[2]+s*(res.Poly[3]+s*(res.Poly[4]+s*res.Poly[5]))))
	newton := math.Pow(s, -1.5)
	if math.Abs(poly-newton) > 0.08*newton {
		t.Errorf("poly(rcut²)=%g, Newton=%g: mismatch at handoff", poly, newton)
	}
	// Near s→0 the grid force is linear in r, so f_grid(0) is a positive
	// constant of order the inverse filter volume (~0.25 for σ=0.8).
	if res.Poly[0] < 0.05 || res.Poly[0] > 0.6 {
		t.Errorf("poly(0)=%g outside the physical range for σ=0.8", res.Poly[0])
	}
}

func TestTotalPairForceIsNewtonian(t *testing.T) {
	// THE force-matching test: PM + short-range = 1/r² across the handoff.
	// A unit source on a 48³ periodic grid; probes from r=0.3 to r=6.
	const n = 48
	res, err := FitGridForce(FitOptions{GridN: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(res.Poly, res.RCut, 1e-7, 1) // gm=1: unit-normalized pair
	pm := newSerialPM(n, 0.8, 3)
	rng := rand.New(rand.NewSource(8))
	src := [3]float64{24.3, 23.8, 24.1}
	pm.solve(src)
	var worst float64
	for _, r := range []float64{0.3, 0.5, 0.8, 1.2, 1.7, 2.3, 2.9, 3.5, 4.5, 6.0} {
		// Average the radial force over several directions (individual
		// directions carry the residual anisotropy noise).
		var radial float64
		const nd = 16
		for d := 0; d < nd; d++ {
			dir := randDir(rng)
			px := src[0] + r*dir[0]
			py := src[1] + r*dir[1]
			pz := src[2] + r*dir[2]
			a := pm.accelAt(px, py, pz)
			pmPart := -(a[0]*dir[0] + a[1]*dir[1] + a[2]*dir[2])
			srPart := float64(k.FSR(float32(r*r))) * r
			radial += pmPart + srPart
		}
		radial /= nd
		want := 1 / (r * r)
		rel := math.Abs(radial-want) / want
		if rel > worst {
			worst = rel
		}
		if rel > 0.025 {
			t.Errorf("r=%.1f: total force %g want %g (err %.2f%%)", r, radial, want, 100*rel)
		}
	}
	t.Logf("worst relative force error across handoff: %.3f%%", 100*worst)
}

func TestChainingMeshBinning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32() * 20
		y[i] = rng.Float32() * 20
		z[i] = rng.Float32() * 20
	}
	m := BuildMesh(x, y, z, 3.0)
	// orig is a permutation; each particle is in the right cell range.
	seen := make([]bool, n)
	for p, o := range m.orig {
		if seen[o] {
			t.Fatalf("duplicate orig %d", o)
		}
		seen[o] = true
		if m.X[p] != x[o] {
			t.Fatalf("slot %d mismatched", p)
		}
	}
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	if int(m.starts[ncell]) != n {
		t.Fatalf("CSR total %d want %d", m.starts[ncell], n)
	}
	for c := 0; c < ncell; c++ {
		for p := m.starts[c]; p < m.starts[c+1]; p++ {
			if m.cellIndex(m.X[p], m.Y[p], m.Z[p]) != int32(c) {
				t.Fatalf("particle %d binned to wrong cell", p)
			}
		}
	}
}

func TestP3MMatchesTree(t *testing.T) {
	// The paper's two short-range backends agree (§II: P3M vs PPTreePM to
	// 0.1% on statistics; here per-particle forces on identical inputs).
	rng := rand.New(rand.NewSource(6))
	res, err := FitGridForce(FitOptions{GridN: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(res.Poly, res.RCut, 1e-5, 0.1)
	n := 600
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32() * 15
		y[i] = rng.Float32() * 15
		z[i] = rng.Float32() * 15
	}
	tr := tree.Build(x, y, z, 32)
	tr.ComputeForces(k.Apply, k.RCut, 2)
	tax := make([]float32, n)
	tay := make([]float32, n)
	taz := make([]float32, n)
	tr.AccelInto(tax, tay, taz)

	m := BuildMesh(x, y, z, k.RCut)
	m.ComputeForces(k.Apply, 2)
	pax := make([]float32, n)
	pay := make([]float32, n)
	paz := make([]float32, n)
	m.AccelInto(pax, pay, paz)

	var scale float64
	for i := range tax {
		scale = math.Max(scale, math.Abs(float64(tax[i])))
	}
	for i := 0; i < n; i++ {
		if math.Abs(float64(tax[i]-pax[i])) > 1e-4*scale ||
			math.Abs(float64(tay[i]-pay[i])) > 1e-4*scale ||
			math.Abs(float64(taz[i]-paz[i])) > 1e-4*scale {
			t.Fatalf("particle %d: tree (%g,%g,%g) p3m (%g,%g,%g)",
				i, tax[i], tay[i], taz[i], pax[i], pay[i], paz[i])
		}
	}
}

func TestKernelMomentumConservationProperty(t *testing.T) {
	// Pairwise antisymmetry: total short-range momentum change is zero.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		res, err := FitGridForce(FitOptions{GridN: 32, Seed: 5})
		if err != nil {
			return false
		}
		k := NewKernel(res.Poly, res.RCut, 1e-5, 1)
		n := 20 + rng.Intn(50)
		x := make([]float32, n)
		y := make([]float32, n)
		z := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32() * 8
			y[i] = rng.Float32() * 8
			z[i] = rng.Float32() * 8
		}
		tr := tree.Build(x, y, z, 16)
		tr.ComputeForces(k.Apply, k.RCut, 1)
		ax := make([]float32, n)
		ay := make([]float32, n)
		az := make([]float32, n)
		tr.AccelInto(ax, ay, az)
		var sx, sy, sz, mag float64
		for i := range ax {
			sx += float64(ax[i])
			sy += float64(ay[i])
			sz += float64(az[i])
			mag += math.Abs(float64(ax[i]))
		}
		tol := 1e-4 * (mag + 1e-12)
		return math.Abs(sx) < tol && math.Abs(sy) < tol && math.Abs(sz) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
