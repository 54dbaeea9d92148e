package spectral

import (
	"hacc/internal/grid"
	"hacc/internal/pfft"
)

// solveReference is the pre-plan implementation — full complex transforms,
// one-shot redistributions, per-call allocation — retained as the pinned
// equivalence oracle for the planned r2c pipeline (see spectral_test.go).
func (p *Poisson) solveReference(rho *grid.Field, acc *[3]*grid.Field) {
	owned := rho.Owned()
	moved := pfft.Redistribute(p.comm, owned, p.dec.Layout(), p.pen.LayoutX())
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
		back := pfft.Redistribute(p.comm, vals, penXLay, blockLay)
		acc[d].SetOwned(back)
	}
}
