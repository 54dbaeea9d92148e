package shortrange

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// meshCopyAdapter gathers spans into a contiguous list, in span order —
// the mesh-side bitwise walk oracle (see tree.TestRangeWalkMatchesCopyWalk
// for the tree side).
func meshCopyAdapter(kern func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64) RangeKernel {
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

// TestMeshRangeWalkMatchesCopyWalk: the driver over the mesh's z-column
// spans (≤9 coalesced spans per cell) fed through the copy adapter must
// reproduce the 27-cell gather walk bitwise, including boundary cells with
// clamped stencils and empty cells inside a column.
func TestMeshRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	poly := [6]float64{0.25, -0.05, 0.01, -1e-3, 8e-5, -2e-6}
	k := NewKernel(poly, 3.0, 0.01, 0.5)
	const n = 800
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		// Clustered distribution: leaves some cells empty so columns span
		// empty interiors, and pushes particles to the domain faces.
		x[i] = float32(rng.Float64()*rng.Float64()) * 18
		y[i] = float32(rng.Float64()) * 18
		z[i] = float32(rng.Float64()*rng.Float64()) * 18
	}
	m := buildMesh(x, y, z, k.RCut)
	inter0 := copyForces(m, k.Apply)
	ax0 := append([]float32(nil), m.AX...)
	ay0 := append([]float32(nil), m.AY...)
	az0 := append([]float32(nil), m.AZ...)

	pool := par.NewPool(3)
	m.ComputeForcesPoolRanges(meshCopyAdapter(k.Apply), pool)
	if got := m.Interactions.Load(); got != inter0 {
		t.Fatalf("range walk evaluated %d interactions, copy walk %d", got, inter0)
	}
	for i := range ax0 {
		if math.Float32bits(m.AX[i]) != math.Float32bits(ax0[i]) ||
			math.Float32bits(m.AY[i]) != math.Float32bits(ay0[i]) ||
			math.Float32bits(m.AZ[i]) != math.Float32bits(az0[i]) {
			t.Fatalf("particle %d differs: (%v %v %v) vs (%v %v %v)",
				i, m.AX[i], m.AY[i], m.AZ[i], ax0[i], ay0[i], az0[i])
		}
	}

	// The production configuration (ApplyRanges) sums in lane order, not
	// list order: compare against the copy result with a relative bound.
	m.ComputeForcesPoolRanges(k.ApplyRanges, pool)
	for i := range ax0 {
		for c, pair := range [3][2]float32{{m.AX[i], ax0[i]}, {m.AY[i], ay0[i]}, {m.AZ[i], az0[i]}} {
			diff := math.Abs(float64(pair[0]) - float64(pair[1]))
			scale := math.Abs(float64(pair[1])) + 1e-4
			if diff > 1e-3*scale {
				t.Fatalf("particle %d comp %d: production %v vs oracle %v", i, c, pair[0], pair[1])
			}
		}
	}
}
