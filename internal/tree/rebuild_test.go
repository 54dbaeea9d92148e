package tree

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// treeForces computes forces and scatters them to caller order.
func treeForces(tr *Tree, n, threads int) (ax, ay, az []float32) {
	tr.ComputeForcesRanges(copyAdapter(testKernel(9)), 3, threads)
	ax = make([]float32, n)
	ay = make([]float32, n)
	az = make([]float32, n)
	accelInto(&tr.Pairs, ax, ay, az)
	return
}

// TestRebuildMatchesBuild reuses one Tree across particle sets of varying
// size and checks the result is bitwise identical to a fresh Build each
// time — the persistent solver state must be indistinguishable from the
// seed's rebuild-from-scratch behavior.
func TestRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	persistent := New(24)
	for _, n := range []int{400, 1000, 120, 0, 700} {
		x, y, z := randomParticles(n, 10, rng)
		persistent.Rebuild(x, y, z)
		fresh := buildTree(x, y, z, 24)
		if persistent.NumBlocks() != fresh.NumBlocks() || len(persistent.nodes) != len(fresh.nodes) {
			t.Fatalf("n=%d: structure differs: %d/%d leaves, %d/%d nodes",
				n, persistent.NumBlocks(), fresh.NumBlocks(), len(persistent.nodes), len(fresh.nodes))
		}
		for i := range fresh.Orig {
			if persistent.Orig[i] != fresh.Orig[i] ||
				persistent.X[i] != fresh.X[i] || persistent.Y[i] != fresh.Y[i] || persistent.Z[i] != fresh.Z[i] {
				t.Fatalf("n=%d: slot %d differs after rebuild", n, i)
			}
		}
		pax, pay, paz := treeForces(persistent, n, 3)
		fax, fay, faz := treeForces(fresh, n, 3)
		for i := 0; i < n; i++ {
			if pax[i] != fax[i] || pay[i] != fay[i] || paz[i] != faz[i] {
				t.Fatalf("n=%d: force %d differs: (%g,%g,%g) vs (%g,%g,%g)",
					n, i, pax[i], pay[i], paz[i], fax[i], fay[i], faz[i])
			}
		}
		if persistent.Interactions.Load() != fresh.Interactions.Load() {
			t.Fatalf("n=%d: interaction counts differ: %d vs %d",
				n, persistent.Interactions.Load(), fresh.Interactions.Load())
		}
	}
}

// TestRebuildResetsStats checks the per-build statistics contract.
func TestRebuildResetsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x, y, z := randomParticles(300, 8, rng)
	tr := buildTree(x, y, z, 16)
	tr.ComputeForcesRanges(copyAdapter(testKernel(9)), 3, 2)
	if tr.Interactions.Load() == 0 {
		t.Fatal("no interactions counted")
	}
	tr.Rebuild(x, y, z)
	if tr.Interactions.Load() != 0 || tr.NodesVisited.Load() != 0 || tr.NeighborCount.Load() != 0 {
		t.Fatal("Rebuild did not reset statistics")
	}
}

// TestComputeForcesPoolMatches pins the driver on a pool of workers sharing
// the leaf cursor against the driver on the calling goroutine alone:
// bitwise-identical accelerations and identical walk statistics for every
// pool size (leaves own disjoint output ranges).
func TestComputeForcesPoolMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x, y, z := randomParticles(800, 16, rng)
	kern := copyAdapter(testKernel(4))
	const rcut = 2.0
	b := buildTree(x, y, z, 16)
	b.ComputeForcesRanges(kern, rcut, 1)
	for _, workers := range []int{1, 2, 3, 5} {
		a := buildTree(x, y, z, 16)
		a.ComputeForcesPoolRanges(kern, rcut, par.NewPool(workers))
		if a.Interactions.Load() != b.Interactions.Load() ||
			a.NodesVisited.Load() != b.NodesVisited.Load() ||
			a.NeighborCount.Load() != b.NeighborCount.Load() {
			t.Fatalf("workers=%d: stats (%d,%d,%d) differ from one worker (%d,%d,%d)", workers,
				a.Interactions.Load(), a.NodesVisited.Load(), a.NeighborCount.Load(),
				b.Interactions.Load(), b.NodesVisited.Load(), b.NeighborCount.Load())
		}
		for i := range a.AX {
			if math.Float32bits(a.AX[i]) != math.Float32bits(b.AX[i]) ||
				math.Float32bits(a.AY[i]) != math.Float32bits(b.AY[i]) ||
				math.Float32bits(a.AZ[i]) != math.Float32bits(b.AZ[i]) {
				t.Fatalf("workers=%d: pooled force %d differs", workers, i)
			}
		}
	}
}
