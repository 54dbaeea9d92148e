package ic

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/fft"
	"hacc/internal/grid"
	"hacc/internal/mpi"
	"hacc/internal/spectral"
)

// generateThreePass is the earlier Generate, kept as the bitwise oracle for
// the single-pass one: it draws δ̂ₖ — LinearPower.P and modeGaussian — once
// per displacement axis over the full complex spectrum, inverts it with a
// serial fft.Plan3 on every rank and keeps the real part, and reads each
// field's block and ghosts straight off the whole grid. Plan3.Inverse runs
// z→y→x one row at a time, like the pencil, so the bits are the
// distributed transform's. Collective over comm.
func generateThreePass(c *mpi.Comm, dec *grid.Decomp, lp *cosmology.LinearPower, o Options, dom *domain.Domain) error {
	if err := o.Validate(); err != nil {
		return err
	}
	n := dec.N
	if n[0] != n[1] || n[1] != n[2] {
		return fmt.Errorf("ic: non-cubic grids not supported for IC generation: %v", n)
	}
	ng := n[0]
	plan := fft.NewPlan3(ng, ng, ng)
	vol := o.BoxMpc * o.BoxMpc * o.BoxMpc
	nc3 := float64(ng) * float64(ng) * float64(ng)
	// <|δ̂_k|²> = P(k)·Nc⁶/V for the unnormalized forward FFT convention.
	ampNorm := nc3 / math.Sqrt(vol)

	growth := lp.Gfac
	d0 := growth.D(o.AInit)
	f0 := growth.F(o.AInit)
	pfac := float32(o.AInit * o.AInit * lp.Params().E(o.AInit) * f0 * d0)

	// Displacement fields, one per axis, built in spectral space over the
	// whole grid (x slowest, z fastest) and inverse-transformed.
	box := dec.Box(c.Rank())
	var disp [3]*grid.Field
	for d := 0; d < 3; d++ {
		spec := make([]complex128, plan.Len())
		for mx := 0; mx < ng; mx++ {
			for my := 0; my < ng; my++ {
				for mz := 0; mz < ng; mz++ {
					if mx == 0 && my == 0 && mz == 0 {
						continue
					}
					kx := spectral.KMode(mx, ng)
					ky := spectral.KMode(my, ng)
					kz := spectral.KMode(mz, ng)
					k2 := kx*kx + ky*ky + kz*kz
					kPhys := math.Sqrt(k2) * float64(ng) / o.BoxMpc
					amp := math.Sqrt(lp.P(kPhys)) * ampNorm
					re, im := modeGaussian(o.Seed, mx, my, mz, ng, o.Fixed)
					dk := complex(amp*re, amp*im)
					kd := [3]float64{kx, ky, kz}[d]
					// Ψ_k = i·k_d/k²·δ_k (continuum gradient for IC fidelity).
					w := kd / k2
					spec[(mx*ng+my)*ng+mz] = complex(-imag(dk)*w, real(dk)*w)
				}
			}
		}
		plan.Inverse(spec)
		disp[d] = grid.NewField(n, box, 2)
		fillGhosted(disp[d], spec)
	}

	// Lay down the lattice sites owned by this rank and displace them. The
	// lattice sits on grid nodes: when Np == Ng the displacement is read
	// off exactly (no CIC smoothing of the IC spectrum).
	step := float64(ng) / float64(o.Np)
	dom.Active.Reset()
	var qx, qy, qz []float32
	var ids []uint64
	for i := 0; i < o.Np; i++ {
		x := float64(i) * step
		if int(x) < box.Lo[0] || int(x) >= box.Hi[0] {
			continue
		}
		for j := 0; j < o.Np; j++ {
			y := float64(j) * step
			if int(y) < box.Lo[1] || int(y) >= box.Hi[1] {
				continue
			}
			for k := 0; k < o.Np; k++ {
				z := float64(k) * step
				if int(z) < box.Lo[2] || int(z) >= box.Hi[2] {
					continue
				}
				qx = append(qx, float32(x))
				qy = append(qy, float32(y))
				qz = append(qz, float32(z))
				ids = append(ids, (uint64(i)*uint64(o.Np)+uint64(j))*uint64(o.Np)+uint64(k))
			}
		}
	}
	np := len(qx)
	psi := make([]float32, np)
	pos := [3][]float32{qx, qy, qz}
	var displ [3][]float32
	for d := 0; d < 3; d++ {
		grid.InterpCIC(disp[d], qx, qy, qz, psi, 1)
		displ[d] = append([]float32(nil), psi...)
	}
	dom.Active.Grow(np)
	for i := 0; i < np; i++ {
		x := pos[0][i] + float32(d0)*displ[0][i]
		y := pos[1][i] + float32(d0)*displ[1][i]
		z := pos[2][i] + float32(d0)*displ[2][i]
		dom.Active.Append(x, y, z,
			pfac*displ[0][i], pfac*displ[1][i], pfac*displ[2][i], ids[i])
	}
	dom.Migrate()
	return nil
}

// fillGhosted sets every cell of f, its ghost halo included, to the real
// part of the periodic whole-grid array full (x slowest, z fastest).
func fillGhosted(f *grid.Field, full []complex128) {
	n, g := f.N, f.Ghost
	var ext [3]int
	for a := range ext {
		ext[a] = f.Box.Size(a) + 2*g
	}
	wrap := func(a, l int) int { return ((f.Box.Lo[a]-g+l)%n[a] + n[a]) % n[a] }
	for lx := 0; lx < ext[0]; lx++ {
		for ly := 0; ly < ext[1]; ly++ {
			for lz := 0; lz < ext[2]; lz++ {
				v := full[(wrap(0, lx)*n[1]+wrap(1, ly))*n[2]+wrap(2, lz)]
				f.Data[(lx*ext[1]+ly)*ext[2]+lz] = real(v)
			}
		}
	}
}

// TestGenerateMatchesThreePass pins Generate bitwise against the three-pass
// oracle: every rank's particles, in order, on 1–8 ranks (3 included, an
// uneven split), with fixed and free amplitudes, with a particle lattice
// coarser and finer than the grid, and on odd grids, which have no Nyquist
// plane to zero.
func TestGenerateMatchesThreePass(t *testing.T) {
	params := cosmology.Default()
	lp := cosmology.NewLinearPower(params, cosmology.EisensteinHuNoWiggle(params))
	for _, tc := range []struct{ ng, np int }{{16, 16}, {16, 8}, {12, 16}, {9, 9}, {15, 10}} {
		n := [3]int{tc.ng, tc.ng, tc.ng}
		for _, procs := range []int{1, 2, 3, 4, 8} {
			for _, fixed := range []bool{false, true} {
				o := Options{Np: tc.np, BoxMpc: 100, AInit: 0.1, Seed: 11, Fixed: fixed}
				name := fmt.Sprintf("ng=%d np=%d ranks=%d fixed=%v", tc.ng, tc.np, procs, fixed)
				err := mpi.Run(procs, func(c *mpi.Comm) {
					dec := grid.NewDecomp(n, procs)
					got := domain.New(c, dec, 2)
					want := domain.New(c, dec, 2)
					if err := Generate(c, dec, lp, o, got); err != nil {
						panic(err)
					}
					if err := generateThreePass(c, dec, lp, o, want); err != nil {
						panic(err)
					}
					g, w := &got.Active, &want.Active
					for _, col := range []struct {
						name string
						a, b []float32
					}{{"x", g.X, w.X}, {"y", g.Y, w.Y}, {"z", g.Z, w.Z}, {"vx", g.Vx, w.Vx}, {"vy", g.Vy, w.Vy}, {"vz", g.Vz, w.Vz}} {
						if !slices.EqualFunc(col.a, col.b, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
							t.Errorf("%s rank %d: %s differs from the three-pass oracle", name, c.Rank(), col.name)
						}
					}
					if !slices.Equal(g.ID, w.ID) {
						t.Errorf("%s rank %d: IDs differ from the three-pass oracle", name, c.Rank())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
