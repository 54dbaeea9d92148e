package tree

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// orderKernel accumulates in float32 in list order, so any change in the
// order neighbours reach it shows in the low bits (testKernel's float64
// sums hide it).
func orderKernel(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64 {
	for i := range lx {
		for j := range nx {
			dx, dy, dz := nx[j]-lx[i], ny[j]-ly[i], nz[j]-lz[i]
			w := 1 / (dx*dx + dy*dy + dz*dz + 0.01)
			ax[i] += w * dx
			ay[i] += w * dy
			az[i] += w * dz
		}
	}
	return int64(len(lx)) * int64(len(nx))
}

// TestRangeWalkMatchesCopyWalk is the bitwise walk oracle: the driver's
// range walk (with leaf-span coalescing and whole-subtree subsumption) fed
// through the copy adapter must equal the gathering walk exactly, neighbour
// order included, for a spread of leaf sizes and cutoffs.
func TestRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kern := leafKernel(orderKernel)
	pool := par.NewPool(3)
	for _, leafSize := range []int{1, 8, 64} {
		for _, rcut := range []float64{0.5, 2, 6} {
			x, y, z := randomParticles(700, 16, rng)
			tr := buildTree(x, y, z, leafSize)
			copyNbr := copyForces(tr, kern, rcut)
			ax0 := append([]float32(nil), tr.AX...)
			ay0 := append([]float32(nil), tr.AY...)
			az0 := append([]float32(nil), tr.AZ...)

			tr.ComputeForcesPoolRanges(copyAdapter(kern), rcut, pool)
			if got, want := tr.NeighborCount.Load(), copyNbr; got != want {
				t.Fatalf("leaf=%d rcut=%g: range walk saw %d neighbors, copy walk %d",
					leafSize, rcut, got, want)
			}
			for i := range ax0 {
				if math.Float32bits(tr.AX[i]) != math.Float32bits(ax0[i]) ||
					math.Float32bits(tr.AY[i]) != math.Float32bits(ay0[i]) ||
					math.Float32bits(tr.AZ[i]) != math.Float32bits(az0[i]) {
					t.Fatalf("leaf=%d rcut=%g: particle %d differs: (%v %v %v) vs (%v %v %v)",
						leafSize, rcut, i, tr.AX[i], tr.AY[i], tr.AZ[i], ax0[i], ay0[i], az0[i])
				}
			}
		}
	}
}

// TestRangeWalkThreadInvariance: the driver partitions leaves over workers
// dynamically, but per-leaf spans are deterministic, so results must be
// independent of the thread count.
func TestRangeWalkThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y, z := randomParticles(600, 12, rng)
	kern := testKernel(4)
	tr := buildTree(x, y, z, 24)
	tr.ComputeForcesRanges(copyAdapter(kern), 2, 1)
	ax0 := append([]float32(nil), tr.AX...)
	for _, threads := range []int{2, 5} {
		tr.ComputeForcesRanges(copyAdapter(kern), 2, threads)
		for i := range ax0 {
			if math.Float32bits(tr.AX[i]) != math.Float32bits(ax0[i]) {
				t.Fatalf("threads=%d: particle %d: %v vs %v", threads, i, tr.AX[i], ax0[i])
			}
		}
	}
}

// TestDepthIterative pins the iterative depth against the structural
// recurrence on a freshly built tree, and the degenerate deep case.
func TestDepthIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y, z := randomParticles(512, 10, rng)
	tr := buildTree(x, y, z, 4)
	var rec func(n int32) int
	rec = func(n int32) int {
		nd := &tr.nodes[n]
		if nd.left < 0 {
			return 1
		}
		l, r := rec(nd.left), rec(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if got, want := depth(tr), rec(0); got != want {
		t.Fatalf("depth = %d, recursive reference %d", got, want)
	}
	// Degenerate: identical coordinates force index-median splits all the
	// way down; depth must be ~log2(n/leaf)+1 and must not stack-overflow.
	n := 1 << 12
	xs := make([]float32, n)
	deep := buildTree(xs, xs, xs, 1)
	if got := depth(deep); got != 13 {
		t.Fatalf("degenerate depth = %d, want 13", got)
	}
}
