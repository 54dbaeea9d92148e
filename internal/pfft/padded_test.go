package pfft_test

import (
	"fmt"
	"math"
	"math/rand"
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
