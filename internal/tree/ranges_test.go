package tree

import (
	"math"
	"math/rand"
	"testing"
)

// copyAdapter turns a copy-list kernel into a RangeLeafKernel by gathering
// the spans into a contiguous list, in span order. Running the range walk
// through this adapter must reproduce the copy walk bitwise: the two walks
// are then proven to present identical neighbor sets in identical order,
// and any difference between production paths is confined to the kernel's
// summation order (shortrange.TestApplyRangesULPBound).
func copyAdapter(kern LeafKernel) RangeLeafKernel {
	return func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
		var nx, ny, nz []float32
		for _, r := range ranges {
			nx = append(nx, px[r[0]:r[1]]...)
			ny = append(ny, py[r[0]:r[1]]...)
			nz = append(nz, pz[r[0]:r[1]]...)
		}
		return kern(lx, ly, lz, nx, ny, nz, ax, ay, az)
	}
}

// TestRangeWalkMatchesCopyWalk is the bitwise walk oracle: the range walk
// (with leaf-span coalescing and whole-subtree subsumption) fed through the
// copy adapter must equal the copy walk exactly, for a spread of leaf sizes
// and cutoffs, in both the goroutine and single-thread configurations.
func TestRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kern := testKernel(4)
	for _, leafSize := range []int{1, 8, 64} {
		for _, rcut := range []float64{0.5, 2, 6} {
			x, y, z := randomParticles(700, 16, rng)
			tr := Build(x, y, z, leafSize)
			tr.ComputeForces(kern, rcut, 3)
			ax0 := append([]float32(nil), tr.AX...)
			ay0 := append([]float32(nil), tr.AY...)
			az0 := append([]float32(nil), tr.AZ...)
			copyNbr := tr.NeighborCount.Load()

			tr.Interactions.Store(0)
			tr.NodesVisited.Store(0)
			tr.NeighborCount.Store(0)
			tr.ComputeForcesRanges(copyAdapter(kern), rcut, 3)
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

// TestRangeWalkThreadInvariance: the range walk partitions leaves over
// workers dynamically, but per-leaf spans are deterministic, so results
// must be independent of thread count and of goroutine-vs-pool dispatch.
func TestRangeWalkThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y, z := randomParticles(600, 12, rng)
	kern := testKernel(4)
	tr := Build(x, y, z, 24)
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

// TestDepthIterative pins the iterative Depth against the structural
// recurrence on a freshly built tree (and the degenerate deep case).
func TestDepthIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y, z := randomParticles(512, 10, rng)
	tr := Build(x, y, z, 4)
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
	if got, want := tr.Depth(), rec(0); got != want {
		t.Fatalf("Depth() = %d, recursive reference %d", got, want)
	}
	// Degenerate: identical coordinates force index-median splits all the
	// way down; depth must be ~log2(n/leaf)+1 and must not stack-overflow.
	n := 1 << 12
	xs := make([]float32, n)
	deep := Build(xs, xs, xs, 1)
	if got := deep.Depth(); got != 13 {
		t.Fatalf("degenerate depth = %d, want 13", got)
	}
}
