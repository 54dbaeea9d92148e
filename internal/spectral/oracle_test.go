package spectral

import (
	"fmt"
	"math"
	"testing"

	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// solveReference is the pre-plan implementation — full complex transforms,
// one-shot redistributions, per-call allocation — retained as the pinned
// equivalence oracle for the planned r2c pipeline (see spectral_test.go).
func (p *Poisson) solveReference(rho *grid.Field, acc *[3]*grid.Field) {
	owned := rho.Owned()
	moved := pfft.NewRedistributor[float64](p.comm, p.dec.Layout(), p.pen.LayoutX()).Run(owned, nil)
	data := make([]complex128, len(moved))
	for i, v := range moved {
		data[i] = complex(v, 0)
	}
	spec := p.pen.Forward(data)
	psi := make([]complex128, len(spec))
	p.pen.ForEachK(func(mx, my, mz, idx int) {
		psi[idx] = spec[idx] * complex(p.kernelAt(mx, my, mz), 0)
	})
	n := p.dec.N
	blockLay := p.dec.Layout()
	penXLay := p.pen.LayoutX()
	for d := 0; d < 3; d++ {
		comp := make([]complex128, len(psi))
		p.pen.ForEachK(func(mx, my, mz, idx int) {
			var dk float64
			switch d {
			case 0:
				dk = GradSL4(KMode(mx, n[0]))
			case 1:
				dk = GradSL4(KMode(my, n[1]))
			default:
				dk = GradSL4(KMode(mz, n[2]))
			}
			v := psi[idx]
			comp[idx] = complex(imag(v)*dk, -real(v)*dk)
		})
		rs := p.pen.Inverse(comp)
		vals := make([]float64, len(rs))
		for i, v := range rs {
			vals[i] = real(v)
		}
		back := pfft.NewRedistributor[float64](p.comm, penXLay, blockLay).Run(vals, nil)
		acc[d].SetOwned(back)
	}
}

// kernelAt is the per-mode Green's function the kernel table replaced,
// kept as its bitwise oracle: at global mode (mx,my,mz) it composes
// coupling × filter (or deconvolution) × inverse influence function, with
// the DC mode zeroed (mean density sources nothing).
func (p *Poisson) kernelAt(mx, my, mz int) float64 {
	if mx == 0 && my == 0 && mz == 0 {
		return 0
	}
	n := p.dec.N
	kx := KMode(mx, n[0])
	ky := KMode(my, n[1])
	kz := KMode(mz, n[2])
	g := 1 / Influence6(kx, ky, kz)
	f := 1.0
	if p.opts.Filter {
		kr := math.Sqrt(kx*kx + ky*ky + kz*kz)
		f = Filter(kr, p.opts.Sigma, p.opts.Ns)
	} else if p.opts.Deconvolve {
		w := sinc(kx/2) * sinc(ky/2) * sinc(kz/2)
		f = 1 / (w * w * w * w)
	}
	return 1.5 * p.opts.OmegaM * f * g
}

// TestKernelTableMatchesPerMode pins the separable kernel table bitwise
// against kernelAt on every local mode, with the isotropizing filter, with
// CIC deconvolution and with neither, on cubic and non-cubic grids over
// pencil and slab plans.
func TestKernelTableMatchesPerMode(t *testing.T) {
	for _, tc := range []struct {
		n     [3]int
		ranks int
		slab  bool
	}{
		{[3]int{16, 16, 16}, 1, false},
		{[3]int{16, 16, 16}, 4, false},
		{[3]int{12, 8, 10}, 2, true},
		{[3]int{6, 4, 16}, 3, false},
	} {
		for _, opts := range []Options{
			{OmegaM: 0.3, Filter: true},
			{OmegaM: 0.25, Deconvolve: true},
			{OmegaM: 0.3},
		} {
			opts.Slab = tc.slab
			name := fmt.Sprintf("n=%v ranks=%d slab=%v filter=%v deconvolve=%v", tc.n, tc.ranks, tc.slab, opts.Filter, opts.Deconvolve)
			err := mpi.Run(tc.ranks, func(c *mpi.Comm) {
				ps := NewPoisson(c, grid.NewDecomp(tc.n, tc.ranks), opts)
				ps.pen.ForEachKR(func(mx, my, mz, idx int) {
					if got, want := ps.kernel[idx], ps.kernelAt(mx, my, mz); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s mode (%d,%d,%d): table %v != per-mode %v", name, mx, my, mz, got, want)
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
