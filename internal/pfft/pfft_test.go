package pfft

import (
	"math/cmplx"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"hacc/internal/fft"
	"hacc/internal/mpi"
)

// scatterGlobal extracts this rank's local piece from a global array.
func scatterGlobal(rank int, full []complex128, lay *Layout) []complex128 {
	n := lay.N
	local := make([]complex128, lay.Boxes[rank].Count())
	forEach(lay.Boxes[rank], lay.Order, func(g [3]int, k int) {
		local[k] = full[(g[0]*n[1]+g[1])*n[2]+g[2]]
	})
	return local
}

func randomGlobal(n [3]int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	full := make([]complex128, n[0]*n[1]*n[2])
	for i := range full {
		full[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return full
}

func TestBoxBasics(t *testing.T) {
	b := Box{Lo: [3]int{1, 2, 3}, Hi: [3]int{4, 5, 6}}
	if b.Count() != 27 {
		t.Errorf("count %d", b.Count())
	}
	if !b.Contains(1, 2, 3) || b.Contains(4, 5, 6) {
		t.Error("contains wrong at corners")
	}
	i := Intersect(b, Box{Lo: [3]int{3, 0, 0}, Hi: [3]int{10, 10, 4}})
	if i.Count() != 1*3*1 {
		t.Errorf("intersect count %d", i.Count())
	}
	empty := Intersect(b, Box{Lo: [3]int{9, 9, 9}, Hi: [3]int{10, 10, 10}})
	if !empty.Empty() {
		t.Error("expected empty intersection")
	}
}

func TestLayoutsPartition(t *testing.T) {
	// Every layout must tile the global grid exactly once.
	n := [3]int{12, 10, 9}
	layouts := []*Layout{
		Block3D(n, [3]int{2, 2, 2}),
		PencilX(n, 3, 2),
		PencilY(n, 2, 3),
		PencilZ(n, 5, 2),
	}
	for li, lay := range layouts {
		seen := make([]int, n[0]*n[1]*n[2])
		for r := range lay.Boxes {
			forEach(lay.Boxes[r], lay.Order, func(g [3]int, _ int) {
				seen[(g[0]*n[1]+g[1])*n[2]+g[2]]++
			})
		}
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("layout %d: point %d covered %d times", li, i, s)
			}
		}
	}
}

func TestLocalIndexBijective(t *testing.T) {
	n := [3]int{8, 6, 4}
	lay := PencilY(n, 2, 2)
	for r := range lay.Boxes {
		seen := map[int]bool{}
		forEach(lay.Boxes[r], lay.Order, func(g [3]int, k int) {
			idx := lay.LocalIndex(r, g)
			if idx != k {
				t.Fatalf("rank %d: LocalIndex %d != traversal order %d", r, idx, k)
			}
			if seen[idx] {
				t.Fatalf("rank %d: duplicate index %d", r, idx)
			}
			seen[idx] = true
		})
	}
}

func TestRedistributeRoundTrip(t *testing.T) {
	n := [3]int{8, 6, 10}
	full := randomGlobal(n, 7)
	for _, procs := range [][3]int{{2, 2, 1}, {1, 2, 2}, {4, 1, 1}} {
		p := procs[0] * procs[1] * procs[2]
		from := Block3D(n, procs)
		to := PencilZ(n, procs[0]*procs[1]*procs[2]/2, 2)
		if p%2 != 0 {
			continue
		}
		err := mpi.Run(p, func(c *mpi.Comm) {
			local := scatterGlobal(c.Rank(), full, from)
			moved := Redistribute(c, local, from, to)
			// Verify against direct extraction.
			want := scatterGlobal(c.Rank(), full, to)
			for i := range moved {
				if moved[i] != want[i] {
					t.Errorf("procs=%v rank=%d idx=%d got %v want %v",
						procs, c.Rank(), i, moved[i], want[i])
					return
				}
			}
			// And back again.
			back := Redistribute(c, moved, to, from)
			for i := range back {
				if back[i] != local[i] {
					t.Errorf("round trip mismatch at %d", i)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestForEachKCoversSpectrum: ForEachKR visits every mode of the half
// spectrum [n0/2+1, n1, n2] exactly once across the ranks, on even and odd
// x extents.
func TestForEachKCoversSpectrum(t *testing.T) {
	for _, n := range [][3]int{{6, 6, 6}, {7, 6, 5}} {
		nh := [3]int{n[0]/2 + 1, n[1], n[2]}
		counts := make([]int64, nh[0]*nh[1]*nh[2])
		err := mpi.Run(4, func(c *mpi.Comm) {
			p := NewPencil(c, n, 2, 2)
			local := make([]int64, len(counts))
			p.ForEachKR(func(kx, ky, kz, idx int) {
				local[(kx*nh[1]+ky)*nh[2]+kz]++
			})
			tot := mpi.AllReduce(c, local, mpi.SumI64)
			if c.Rank() == 0 {
				copy(counts, tot)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range counts {
			if v != 1 {
				t.Fatalf("n=%v: half-spectrum mode %d visited %d times", n, i, v)
			}
		}
	}
}

// Property: the distributed r2c transform of a random real field on a random
// process grid matches the non-negative-kx half of the serial complex
// transform.
func TestPencilMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nside := []int{4, 5, 6, 8}[rng.Intn(4)]
		n := [3]int{nside, nside, nside}
		grids := [][2]int{{1, 1}, {2, 1}, {2, 2}, {1, 2}, {4, 1}, {2, 3}}
		g := grids[rng.Intn(len(grids))]
		if g[0] > nside || g[1] > nside {
			return true
		}
		full := make([]float64, n[0]*n[1]*n[2])
		want := make([]complex128, len(full))
		for i := range full {
			full[i] = rng.NormFloat64()
			want[i] = complex(full[i], 0)
		}
		fft.NewPlan3(n[0], n[1], n[2]).Forward(want)
		var bad atomic.Bool
		err := mpi.Run(g[0]*g[1], func(c *mpi.Comm) {
			p := NewPencil(c, n, g[0], g[1])
			spec := p.ForwardReal(scatterReal(c.Rank(), full, p.LayoutX()))
			p.ForEachKR(func(kx, ky, kz, idx int) {
				if cmplx.Abs(spec[idx]-want[(kx*n[1]+ky)*n[2]+kz]) > 1e-7 {
					bad.Store(true)
				}
			})
		})
		return err == nil && !bad.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// scatterReal extracts this rank's local piece of a real global array.
func scatterReal(rank int, full []float64, lay *Layout) []float64 {
	n := lay.N
	local := make([]float64, lay.Boxes[rank].Count())
	forEach(lay.Boxes[rank], lay.Order, func(g [3]int, k int) {
		local[k] = full[(g[0]*n[1]+g[1])*n[2]+g[2]]
	})
	return local
}
