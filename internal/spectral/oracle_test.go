package spectral

import (
	"fmt"
	"math"
	"testing"

	"hacc/internal/fft"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
)

// solveReference is the pre-plan implementation — full complex transforms,
// per-call allocation — retained as the pinned equivalence oracle for the
// planned r2c pipeline (see spectral_test.go). Every rank gathers the whole
// density grid, transforms it with a serial fft.Plan3, and reads its own
// block of each acceleration component off the whole-grid inverse.
func (p *Poisson) solveReference(rho *grid.Field, acc *[3]*grid.Field) {
	n := p.dec.N
	box := p.dec.Box(p.comm.Rank())
	at := func(x, y, z int) int { return (x*n[1]+y)*n[2] + z }
	full := make([]float64, n[0]*n[1]*n[2])
	forBox(box, func(x, y, z int) { full[at(x, y, z)] = rho.At(x, y, z) })
	full = mpi.AllReduce(p.comm, full, mpi.SumF64)
	plan := fft.NewPlan3(n[0], n[1], n[2])
	psi := make([]complex128, len(full))
	for i, v := range full {
		psi[i] = complex(v, 0)
	}
	plan.Forward(psi)
	forBox(pfft.Box{Hi: n}, func(mx, my, mz int) {
		psi[at(mx, my, mz)] *= complex(p.kernelAt(mx, my, mz), 0)
	})
	for d := 0; d < 3; d++ {
		comp := make([]complex128, len(psi))
		forBox(pfft.Box{Hi: n}, func(mx, my, mz int) {
			dk := GradSL4(KMode([3]int{mx, my, mz}[d], n[d]))
			v := psi[at(mx, my, mz)]
			comp[at(mx, my, mz)] = complex(imag(v)*dk, -real(v)*dk)
		})
		plan.Inverse(comp)
		forBox(box, func(x, y, z int) { acc[d].Set(x, y, z, real(comp[at(x, y, z)])) })
	}
}

// forBox visits every cell of b, x slowest and z fastest.
func forBox(b pfft.Box, fn func(x, y, z int)) {
	for x := b.Lo[0]; x < b.Hi[0]; x++ {
		for y := b.Lo[1]; y < b.Hi[1]; y++ {
			for z := b.Lo[2]; z < b.Hi[2]; z++ {
				fn(x, y, z)
			}
		}
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
