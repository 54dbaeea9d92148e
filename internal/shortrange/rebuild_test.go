package shortrange

import (
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// simpleKernel is a cheap inverse-square-with-cutoff test kernel.
func simpleKernel(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64 {
	const rc2 = 9
	for i := range lx {
		var sx, sy, sz float32
		for j := range nx {
			dx := nx[j] - lx[i]
			dy := ny[j] - ly[i]
			dz := nz[j] - lz[i]
			s := dx*dx + dy*dy + dz*dz
			if s <= 0 || s > rc2 {
				continue
			}
			w := 1 / (s + 0.01)
			sx += w * dx
			sy += w * dy
			sz += w * dz
		}
		ax[i] += sx
		ay[i] += sy
		az[i] += sz
	}
	return int64(len(lx)) * int64(len(nx))
}

func randomMeshParticles(n int, box float32, rng *rand.Rand) (x, y, z []float32) {
	x = make([]float32, n)
	y = make([]float32, n)
	z = make([]float32, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float32() * box
		y[i] = rng.Float32() * box
		z[i] = rng.Float32() * box
	}
	return
}

// TestMeshRebuildMatchesBuild reuses one ChainingMesh across particle sets
// of varying size and extent and checks bitwise agreement with a fresh
// mesh each time.
func TestMeshRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	persistent := NewMesh(3.0)
	pool := par.NewPool(2)
	kern := meshCopyAdapter(simpleKernel)
	for _, tc := range []struct {
		n   int
		box float32
	}{{500, 20}, {1500, 12}, {80, 30}, {0, 10}, {900, 20}} {
		x, y, z := randomMeshParticles(tc.n, tc.box, rng)
		persistent.Rebuild(x, y, z)
		fresh := buildMesh(x, y, z, 3.0)
		if persistent.dims != fresh.dims {
			t.Fatalf("n=%d: dims differ: %v vs %v", tc.n, persistent.dims, fresh.dims)
		}
		for c := range fresh.starts {
			if persistent.starts[c] != fresh.starts[c] {
				t.Fatalf("n=%d: CSR offset %d differs", tc.n, c)
			}
		}
		for i := range fresh.Orig {
			if persistent.Orig[i] != fresh.Orig[i] || persistent.X[i] != fresh.X[i] {
				t.Fatalf("n=%d: slot %d differs after rebuild", tc.n, i)
			}
		}
		persistent.ComputeForcesPoolRanges(kern, pool)
		fresh.ComputeForcesPoolRanges(kern, pool)
		pax := make([]float32, tc.n)
		pay := make([]float32, tc.n)
		paz := make([]float32, tc.n)
		fax := make([]float32, tc.n)
		fay := make([]float32, tc.n)
		faz := make([]float32, tc.n)
		persistent.AccelInto(pax, pay, paz)
		fresh.AccelInto(fax, fay, faz)
		for i := 0; i < tc.n; i++ {
			if pax[i] != fax[i] || pay[i] != fay[i] || paz[i] != faz[i] {
				t.Fatalf("n=%d: force %d differs", tc.n, i)
			}
		}
		if persistent.Interactions.Load() != fresh.Interactions.Load() {
			t.Fatalf("n=%d: interactions differ: %d vs %d",
				tc.n, persistent.Interactions.Load(), fresh.Interactions.Load())
		}
	}
}

// TestMeshComputeForcesPoolMatches checks the driver on a pool of workers
// sharing the cell cursor against the driver on the calling goroutine
// alone (bitwise: cells own disjoint output ranges).
func TestMeshComputeForcesPoolMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	x, y, z := randomMeshParticles(800, 18, rng)
	kern := meshCopyAdapter(simpleKernel)
	b := buildMesh(x, y, z, 3.0)
	b.ComputeForcesPoolRanges(kern, par.NewPool(1))
	for _, workers := range []int{1, 2, 4} {
		a := buildMesh(x, y, z, 3.0)
		a.ComputeForcesPoolRanges(kern, par.NewPool(workers))
		for i := range a.AX {
			if a.AX[i] != b.AX[i] || a.AY[i] != b.AY[i] || a.AZ[i] != b.AZ[i] {
				t.Fatalf("workers=%d: pooled force %d differs", workers, i)
			}
		}
		if a.Interactions.Load() != b.Interactions.Load() {
			t.Fatalf("workers=%d: interaction counts differ: %d vs %d",
				workers, a.Interactions.Load(), b.Interactions.Load())
		}
	}
}
