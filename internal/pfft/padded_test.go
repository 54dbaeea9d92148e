package pfft_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// TestPaddedLayoutMatchesOwnedCopy pins that a redistribution that reads or
// writes a ghosted field in place — its block layout padded by the ghost
// width — moves the same bits as the copy it replaces: Owned → Run
// into pencils, and Run out of pencils → SetOwned, with the halo left as it
// was. Ghost widths 0, 1 and 6, on 1, 2 and 4 ranks, to pencil and slab
// x-layouts of a non-cubic grid.
func TestPaddedLayoutMatchesOwnedCopy(t *testing.T) {
	n := [3]int{16, 12, 10}
	for _, p := range []int{1, 2, 4} {
		for _, slab := range []bool{false, true} {
			for _, g := range []int{0, 1, 6} {
				name := fmt.Sprintf("p=%d slab=%v ghost=%d", p, slab, g)
				err := mpi.Run(p, func(c *mpi.Comm) {
					dec := grid.NewDecomp(n, p)
					pen := pfft.PencilX(n, p, 1)
					if !slab {
						d := mpi.BalancedDims(p, 2)
						pen = pfft.PencilX(n, d[0], d[1])
					}
					box := dec.Box(c.Rank())
					rng := rand.New(rand.NewSource(int64(100*p + 10*g + c.Rank())))
					randomize := func(v []float64) {
						for i := range v {
							v[i] = rng.NormFloat64()
						}
					}

					toCopy := pfft.NewRedistributor[float64](c, dec.Layout(), pen)
					toPadded := pfft.NewRedistributor[float64](c, dec.Layout().Padded(g), pen)
					f := grid.NewField(n, box, g)
					randomize(f.Data)
					want := toCopy.Run(f.Owned(), nil)
					if got := toPadded.Run(f.Data, nil); !sameBits(got, want) {
						t.Errorf("%s rank %d: padded block → pencil differs from the owned copy", name, c.Rank())
					}

					fromCopy := pfft.NewRedistributor[float64](c, pen, dec.Layout())
					fromPadded := pfft.NewRedistributor[float64](c, pen, dec.Layout().Padded(g))
					src := make([]float64, fromCopy.SrcLen())
					randomize(src)
					fw, fg := grid.NewField(n, box, g), grid.NewField(n, box, g)
					randomize(fw.Data)
					copy(fg.Data, fw.Data)
					fw.SetOwned(fromCopy.Run(src, nil))
					fromPadded.Run(src, fg.Data)
					if !sameBits(fg.Data, fw.Data) {
						t.Errorf("%s rank %d: pencil → padded block differs from the owned copy", name, c.Rank())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHaloLayoutHoldsCanonicalPoints pins the halo layout's meaning: a
// plan from x-pencils into a padded block layout's Halo writes every slot
// of a rank's storage, halo included, with the value of its canonical
// point g mod N — also where the halo is wider than a neighbour's box and
// reaches the same point more than once. Ghost widths 1–6 on 1, 2, 3, 4 and
// 8 ranks of a non-cubic grid.
func TestHaloLayoutHoldsCanonicalPoints(t *testing.T) {
	n := [3]int{16, 12, 10}
	value := func(x, y, z int) float64 { return float64((x*n[1]+y)*n[2] + z) }
	for _, p := range []int{1, 2, 3, 4, 8} {
		for g := 1; g <= 6; g++ {
			err := mpi.Run(p, func(c *mpi.Comm) {
				d := mpi.BalancedDims(p, 2)
				pen := pfft.PencilX(n, d[0], d[1])
				src := make([]float64, pen.Boxes[c.Rank()].Count())
				pb := pen.Boxes[c.Rank()]
				for x := pb.Lo[0]; x < pb.Hi[0]; x++ {
					for y := pb.Lo[1]; y < pb.Hi[1]; y++ {
						for z := pb.Lo[2]; z < pb.Hi[2]; z++ {
							src[pen.LocalIndex(c.Rank(), [3]int{x, y, z})] = value(x, y, z)
						}
					}
				}
				lay := grid.NewDecomp(n, p).Layout().Padded(g)
				dst := pfft.NewRedistributor[float64](c, pen, lay.Halo()).Run(src, nil)
				b := lay.Boxes[c.Rank()]
				wrap := func(v, m int) int { return (v%m + m) % m }
				for x := b.Lo[0] - g; x < b.Hi[0]+g; x++ {
					for y := b.Lo[1] - g; y < b.Hi[1]+g; y++ {
						for z := b.Lo[2] - g; z < b.Hi[2]+g; z++ {
							got := dst[lay.LocalIndex(c.Rank(), [3]int{x, y, z})]
							if want := value(wrap(x, n[0]), wrap(y, n[1]), wrap(z, n[2])); got != want {
								t.Fatalf("p=%d ghost=%d rank %d: slot (%d,%d,%d) holds %v, want %v", p, g, c.Rank(), x, y, z, got, want)
							}
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestHaloPlanRejectsMismatchedPeers: ranks that build a halo plan over
// different halo widths disagree on their legs' lengths, and the build
// panics on every rank instead of running mismatched legs.
func TestHaloPlanRejectsMismatchedPeers(t *testing.T) {
	n := [3]int{16, 12, 10}
	err := mpi.Run(2, func(c *mpi.Comm) {
		lay := grid.NewDecomp(n, 2).Layout().Padded(1 + c.Rank())
		pfft.NewRedistributor[float64](c, pfft.PencilX(n, 2, 1), lay.Halo())
	})
	if err == nil || !strings.Contains(err.Error(), "plans to send") {
		t.Fatalf("mismatched halo widths: got %v, want a leg-length panic", err)
	}
}
