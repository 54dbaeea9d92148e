package shortrange_test

// The cross-solver tests live in an external test package: package tree
// imports shortrange, so only an external test package can drive both.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hacc/internal/par"
	"hacc/internal/shortrange"
	"hacc/internal/tree"
)

// treeForces runs the production range kernel over an RCB tree and returns
// the accelerations in input order.
func treeForces(k *shortrange.Kernel, x, y, z []float32, leafSize int, pool *par.Pool) (ax, ay, az []float32) {
	tr := tree.New(leafSize)
	tr.Rebuild(x, y, z)
	tr.ComputeForcesPoolRanges(k.ApplyRanges, k.RCut, pool)
	ax, ay, az = make([]float32, len(x)), make([]float32, len(x)), make([]float32, len(x))
	tr.AccelInto(ax, ay, az)
	return
}

func TestP3MMatchesTree(t *testing.T) {
	// The paper's two short-range backends agree (§II: P3M vs PPTreePM to
	// 0.1% on statistics; here per-particle forces on identical inputs).
	rng := rand.New(rand.NewSource(6))
	res, err := shortrange.FitGridForce(shortrange.FitOptions{GridN: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := shortrange.NewKernel(res.Poly, res.RCut, 1e-5, 0.1)
	n := 600
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		x[i] = rng.Float32() * 15
		y[i] = rng.Float32() * 15
		z[i] = rng.Float32() * 15
	}
	pool := par.NewPool(2)
	tax, tay, taz := treeForces(k, x, y, z, 32, pool)

	m := shortrange.NewMesh(k.RCut)
	m.Rebuild(x, y, z)
	m.ComputeForcesPoolRanges(k.ApplyRanges, pool)
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
	res, err := shortrange.FitGridForce(shortrange.FitOptions{GridN: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k := shortrange.NewKernel(res.Poly, res.RCut, 1e-5, 1)
	pool := par.NewPool(1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		x := make([]float32, n)
		y := make([]float32, n)
		z := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32() * 8
			y[i] = rng.Float32() * 8
			z[i] = rng.Float32() * 8
		}
		ax, ay, az := treeForces(k, x, y, z, 16, pool)
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
